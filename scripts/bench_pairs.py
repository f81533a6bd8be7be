"""Paired end-to-end benchmark runs of this tree against a parent checkout.

    python scripts/bench_pairs.py PARENT_DIR [--workloads W ...] [--pairs N]
        [--seconds S] [--seed K] [--claim WORKLOAD] [--metric M]
        [--other-seed K2] [--out FILE]

runs ``pairs`` on the workloads (default: all three) and prints ``verdict``
as JSON; without ``--claim`` it judges no claim, only the bounds. With
``--other-seed`` it also runs the claimed workload's pairs at that seed and
judges the claim there, and with ``--out`` it writes the whole record (see
``paired_record``) as a ``BENCH_*.json``. The ``bench_*.py`` scripts import
it and add their own in-process measurements.

``pairs`` runs ``perfbench/run.py --trace 0`` on each workload, parent and
change alternating which runs first, and compares each pair's data files
(every output but the manifest) byte for byte; ``verdict`` judges the
medians against the bounds of ``BENCHMARK.json`` and a claim on one
workload's end-to-end metric ``--metric`` (default ``run_s``), in the
direction that BENCHMARK.json's ``better`` gives it.

Each run also yields every job's ``exit_s``: the median over its passes of
``wall_s - setup_s - run_s`` in perfbench's ``result.json``, the time from
``qdiode.cli.run`` returning to the process being reaped. The tracer cannot
see that stretch, so it shows where a ``total_s`` change sits that
``run_s`` and ``setup_s`` do not explain.

Importing this module sets one BLAS thread in the environment, as perfbench
does, so import it before numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import jobs as jobs_mod  # noqa: E402

METRICS = ("run_s", "total_s", "setup_s", "cpu_s", "peak_rss_mb", "ok_frac")
CLAIM_RULE = ("change better (as BENCHMARK.json's `better` says) in at "
              "least 9 of 10 pairs, and the difference of medians larger "
              "than the parent's interquartile range")
PAIRING = ("pairs alternate which side runs first: even-numbered pairs "
           "(from 0) parent first")


def quartiles(xs) -> list[float]:
    return [float(v) for v in np.percentile(xs, [25, 50, 75])]


def git_head(tree: str) -> str:
    return subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, better, bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {e["name"]: e for e in json.load(fh)["end_to_end"]}


def exit_times(result: dict) -> dict:
    """Each job's median unscaled ``wall_s - setup_s - run_s`` over the
    passes of a perfbench ``result.json`` in which it finished."""
    runs: dict = {}
    for record in result["passes"]:
        for r in record:
            if r["run_s"] is not None:
                runs.setdefault(r["job"], []).append(
                    r["wall_s"] - r["setup_s"] - r["run_s"])
    return {job: statistics.median(xs) for job, xs in runs.items()}


def perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``tree``,
    its ``correct`` flag, a digest of every job's data files and every
    job's ``exit_s``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(tree, "perfbench", "_work", workload)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        exit_s = exit_times(json.load(fh))
    digest = hashlib.sha256()
    for job in jobs_mod.make_jobs(workload, seed, work):
        for fname, data in jobs_mod.data_files(work, job).items():
            digest.update(f"{job.name}/{fname}".encode() + data)
    return {"correct": last["correct"],
            "data_sha256": digest.hexdigest(),
            **{m: last["metrics"][m]["value"] for m in METRICS},
            "exit_s": exit_s}


def compare(par, chg) -> dict:
    """Each side's quartiles, and the pairs in which the change was lower
    and higher."""
    return {"parent_q1_median_q3": quartiles(par),
            "change_q1_median_q3": quartiles(chg),
            "change_lower": sum(c < p for p, c in zip(par, chg)),
            "change_higher": sum(c > p for p, c in zip(par, chg))}


def pairs(parent: str, workloads, n_pairs: int, seed: int,
          seconds: float) -> list[dict]:
    """``n_pairs`` alternating perfbench runs of the parent and this tree on
    each workload, summarised per metric, and per job for ``exit_s``, by
    the quartiles of each side and the number of pairs in which the change
    was lower and higher."""
    summary = []
    for workload in workloads:
        runs = []
        for i in range(n_pairs):
            sides = [("parent", parent), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            pair = {name: perfbench(tree, workload, seed, seconds)
                    for name, tree in sides}
            pair["first"] = sides[0][0]
            runs.append(pair)
            print(workload, i, {k: pair[k]["run_s"] for k in ("parent", "change")},
                  file=sys.stderr)
        entry = {"workload": workload, "seed": seed, "seconds": seconds,
                 "pairs": n_pairs,
                 "all_correct": all(r[s]["correct"] for r in runs
                                    for s in ("parent", "change")),
                 "data_files_identical": all(
                     r["parent"]["data_sha256"] == r["change"]["data_sha256"]
                     for r in runs)}
        for m in METRICS:
            entry[m] = compare([r["parent"][m] for r in runs],
                               [r["change"][m] for r in runs])
        entry["exit_s"] = {
            job: compare([r["parent"]["exit_s"][job] for r in runs],
                         [r["change"]["exit_s"][job] for r in runs])
            for job in runs[0]["parent"]["exit_s"]}
        entry["runs"] = runs
        summary.append(entry)
    return summary


def verdict(summary: list[dict], claim_workload: str,
            metric: str = "run_s") -> dict:
    """The claim (``claim_workload``'s ``metric`` better in at least 9 of
    10 pairs, by more than the parent's interquartile range, where better
    is BENCHMARK.json's ``better`` for it), and for every workload and
    metric the change's median over the parent's, against the bound that
    BENCHMARK.json fixes."""
    declared = end_to_end()
    out = {}
    for entry in summary:
        for m in METRICS:
            par_med = entry[m]["parent_q1_median_q3"][1]
            chg_med = entry[m]["change_q1_median_q3"][1]
            ratio = chg_med / par_med if par_med else None
            bound = declared[m]["bound"]
            out[f"{entry['workload']}.{m}"] = {
                "change_median_over_parent": ratio,
                "bound": bound,
                "within_bound": (ratio is None or (
                    ratio >= 1 - bound if declared[m]["better"] == "higher"
                    else ratio <= 1 + bound))}
        if entry["workload"] == claim_workload:
            claimed = entry[metric]
            par_q1, par_med, par_q3 = claimed["parent_q1_median_q3"]
            gain = par_med - claimed["change_q1_median_q3"][1]
            wins = claimed["change_lower"]
            if declared[metric]["better"] == "higher":
                gain, wins = -gain, claimed["change_higher"]
            out["claim_met"] = (10 * wins >= 9 * entry["pairs"]
                                and gain > par_q3 - par_q1)
    return out


def paired_record(parent: str, claim_workload: str, workloads, n_pairs: int,
                  seed: int, seconds: float, metric: str = "run_s") -> dict:
    """The record's paired part: the parent commit, the claim on
    ``claim_workload``'s ``metric``, the pairs and their verdict."""
    summary = pairs(os.path.abspath(parent), workloads, n_pairs, seed,
                    seconds)
    return {"parent": git_head(parent),
            "claim": {"workload": claim_workload, "metric": metric,
                      "better": end_to_end()[metric]["better"],
                      "rule": CLAIM_RULE},
            "pairing": PAIRING,
            "pairs": summary,
            "verdict": verdict(summary, claim_workload, metric)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("--workloads", nargs="+", choices=jobs_mod.WORKLOADS,
                    default=list(jobs_mod.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", choices=jobs_mod.WORKLOADS,
                    help="the workload whose --metric the change claims to "
                         "improve")
    ap.add_argument("--metric", choices=METRICS, default="run_s",
                    help="the end-to-end metric of the claim")
    ap.add_argument("--other-seed", type=int,
                    help="also judge the claim at this seed, one not used "
                         "while the change was written")
    ap.add_argument("--out", metavar="FILE",
                    help="write the record (parent, claim, pairs with every "
                         "job's exit_s, verdicts) to FILE as JSON")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    record = {
        "command": " ".join(["python3", "scripts/bench_pairs.py"]
                            + ["PARENT_DIR" if a == args.parent else a
                               for a in argv]),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1},
        **paired_record(args.parent, args.claim, args.workloads, args.pairs,
                        args.seed, args.seconds, args.metric)}
    verdicts = {f"seed {args.seed}": record["verdict"]}
    if args.claim and args.other_seed is not None:
        record["claim_on_other_seed"] = paired_record(
            args.parent, args.claim, [args.claim], args.pairs,
            args.other_seed, args.seconds, args.metric)
        verdicts[f"seed {args.other_seed}"] = (
            record["claim_on_other_seed"]["verdict"])
    print(json.dumps(verdicts, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
