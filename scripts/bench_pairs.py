"""Paired end-to-end benchmark runs of this tree against a parent checkout.

    python scripts/bench_pairs.py PARENT_DIR [--workloads W ...] [--pairs N]
        [--seconds S] [--seed K] [--claim WORKLOAD]

runs ``pairs`` on the workloads (default: all three) and prints ``verdict``
as JSON; without ``--claim`` it judges no claim, only the bounds. The
``bench_*.py`` scripts import it and add their own in-process measurements.

``pairs`` runs ``perfbench/run.py --trace 0`` on each workload, parent and
change alternating which runs first, and compares each pair's data files
(every output but the manifest) byte for byte; ``verdict`` judges the
medians against the bounds of ``BENCHMARK.json`` and a claim on
one workload's ``run_s``.

Importing this module sets one BLAS thread in the environment, as perfbench
does, so import it before numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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
CLAIM_RULE = ("change lower in at least 9 of 10 pairs, and the difference "
              "of medians larger than the parent's interquartile range")
PAIRING = ("pairs alternate which side runs first: even-numbered pairs "
           "(from 0) parent first")


def quartiles(xs) -> list[float]:
    return [float(v) for v in np.percentile(xs, [25, 50, 75])]


def git_head(tree: str) -> str:
    return subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``tree``,
    its ``correct`` flag and a digest of every job's data files."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(tree, "perfbench", "_work", workload)
    digest = hashlib.sha256()
    for job in jobs_mod.make_jobs(workload, seed, work):
        for fname, data in jobs_mod.data_files(work, job).items():
            digest.update(f"{job.name}/{fname}".encode() + data)
    return {"correct": last["correct"],
            "data_sha256": digest.hexdigest(),
            **{m: last["metrics"][m]["value"] for m in METRICS}}


def pairs(parent: str, workloads, n_pairs: int, seed: int,
          seconds: float) -> list[dict]:
    """``n_pairs`` alternating perfbench runs of the parent and this tree on
    each workload, summarised per metric by the quartiles of each side and
    the number of pairs in which the change was lower and higher."""
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
            par = [r["parent"][m] for r in runs]
            chg = [r["change"][m] for r in runs]
            entry[m] = {
                "parent_q1_median_q3": quartiles(par),
                "change_q1_median_q3": quartiles(chg),
                "change_lower": sum(c < p for p, c in zip(par, chg)),
                "change_higher": sum(c > p for p, c in zip(par, chg))}
        entry["runs"] = runs
        summary.append(entry)
    return summary


def verdict(summary: list[dict], claim_workload: str) -> dict:
    """The claim (``claim_workload``'s run_s lower in at least 9 of 10
    pairs, by more than the parent's interquartile range), and for every
    workload and metric the change's median over the parent's, against the
    bound that BENCHMARK.json fixes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {e["name"]: e["bound"]
                  for e in json.load(fh)["end_to_end"]}
    out = {}
    for entry in summary:
        for m in METRICS:
            par_med = entry[m]["parent_q1_median_q3"][1]
            chg_med = entry[m]["change_q1_median_q3"][1]
            ratio = chg_med / par_med if par_med else None
            out[f"{entry['workload']}.{m}"] = {
                "change_median_over_parent": ratio,
                "bound": bounds[m],
                "within_bound": (ratio is None or (
                    ratio >= 1 - bounds[m] if m == "ok_frac"
                    else ratio <= 1 + bounds[m]))}
        if entry["workload"] == claim_workload:
            run = entry["run_s"]
            par_q1, par_med, par_q3 = run["parent_q1_median_q3"]
            out["claim_met"] = (
                10 * run["change_lower"] >= 9 * entry["pairs"]
                and par_med - run["change_q1_median_q3"][1] > par_q3 - par_q1)
    return out


def paired_record(parent: str, claim_workload: str, workloads, n_pairs: int,
                  seed: int, seconds: float) -> dict:
    """The record's paired part: the parent commit, the claim on
    ``claim_workload``'s run_s, the pairs and their verdict."""
    summary = pairs(os.path.abspath(parent), workloads, n_pairs, seed,
                    seconds)
    return {"parent": git_head(parent),
            "claim": {"workload": claim_workload, "metric": "run_s",
                      "better": "lower", "rule": CLAIM_RULE},
            "pairing": PAIRING,
            "pairs": summary,
            "verdict": verdict(summary, claim_workload)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("--workloads", nargs="+", choices=jobs_mod.WORKLOADS,
                    default=list(jobs_mod.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", choices=jobs_mod.WORKLOADS,
                    help="the workload whose run_s the change claims to lower")
    args = ap.parse_args(argv)
    summary = pairs(os.path.abspath(args.parent), args.workloads, args.pairs,
                    args.seed, args.seconds)
    print(json.dumps(verdict(summary, args.claim), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
