"""Benchmark of a cold job's fixed cost: argv parsed by hand, each output
file written in one call.

    python3 scripts/bench_cold_job.py --parent PARENT_DIR \\
        --pairs 10 --seconds 36 --out BENCH_cold_job.json

Run from the repository root; PARENT_DIR is a checkout of the parent commit
(``git clone``). One BLAS thread is used throughout, as in perfbench.

- ``cold_split``: perfbench spectrum-line's forward job at seed 0, each
  sample a fresh interpreter that imports ``qdiode.cli`` from one tree and
  calls ``cli.run``, the parent's and this tree's alternating. The time
  inside ``run`` is split into parsing argv (entry to the config load),
  writing (inside ``io.write_spectrum_csv`` and ``io.write_manifest``) and
  the rest, solving (config, steady state, spectrum and fit). Each sample
  also lists which of argparse, gettext and locale are loaded after the
  run, and its data files are compared byte for byte with the parent's
  first.
- ``pairs``: ``bench_pairs.pairs`` on every workload, with the claim on
  spectrum-line's ``run_s``; with ``--other-seed``, also
  ``claim_on_other_seed``: spectrum-line's pairs at that seed, one not
  used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

# bench_pairs sets one BLAS thread before numpy loads, and puts src and
# perfbench on the path.
from bench_pairs import ROOT, jobs_mod, paired_record, quartiles
import numpy as np

WATCHED = ("argparse", "gettext", "locale")
# One cold job in a fresh interpreter: argv is the tree, then qdiode's argv.
# It imports nothing that argparse would, so the parent's parser pays its
# own imports and gettext lookups.
CHILD = f"""
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
import qdiode.cli as cli
from qdiode import io

marks = {{"write_s": 0.0}}

def writing(fn):
    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            marks["write_s"] += time.perf_counter() - t
    return timed

def marked(fn):
    def first_call(*args, **kwargs):
        marks.setdefault("load", time.perf_counter())
        return fn(*args, **kwargs)
    return first_call

io.write_spectrum_csv = writing(io.write_spectrum_csv)
io.write_manifest = writing(io.write_manifest)
cli.load = marked(cli.load)
t0 = time.perf_counter()
code = cli.run(sys.argv[2:])
run_s = time.perf_counter() - t0
parse_s = marks["load"] - t0
print(json.dumps({{
    "code": code, "run_s": run_s, "parse_s": parse_s,
    "write_s": marks["write_s"],
    "solve_s": run_s - parse_s - marks["write_s"],
    "loaded": [m for m in {WATCHED!r} if m in sys.modules]}}))
"""
PARTS = ("run_s", "parse_s", "solve_s", "write_s")


def spectrum_job(workdir: str):
    """The job and argv of perfbench spectrum-line's forward job at seed 0,
    with its config written under ``workdir``."""
    jobs = jobs_mod.make_jobs("spectrum-line", 0, workdir)
    jobs_mod.write_configs(workdir, jobs)
    job = next(j for j in jobs if j.name == "forward")
    return job, jobs_mod.argv(workdir, job, 0)


def cold_split(parent: str, samples: int) -> dict:
    trees = {"parent": os.path.abspath(parent), "change": ROOT}
    times = {side: {p: [] for p in PARTS} for side in trees}
    loaded = {side: set() for side in trees}
    identical = True
    reference = None
    with tempfile.TemporaryDirectory() as tmp:
        job, argv = spectrum_job(tmp)
        for i in range(samples + 2):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                shutil.rmtree(jobs_mod.out_dir(tmp, job))
                proc = subprocess.run(
                    [sys.executable, "-c", CHILD, trees[side], *argv],
                    capture_output=True, text=True, check=True)
                sample = json.loads(proc.stdout.strip().splitlines()[-1])
                if sample["code"] != 0:
                    raise RuntimeError(f"{side}: exit {sample['code']}: "
                                       f"{proc.stderr}")
                files = jobs_mod.data_files(tmp, job)
                if reference is None:
                    reference = files
                identical &= files == reference
                loaded[side].update(sample["loaded"])
                if i >= 2:          # the first two rounds warm up
                    for p in PARTS:
                        times[side][p].append(sample[p] * 1e3)
    return {
        "job": "spectrum-line forward, seed 0 (401 frequencies, "
               "Lorentzian fit)",
        "samples": samples,
        "pairing": "samples alternate which side runs first",
        "parts": {"parse_s": "run() entry to the config load: argv",
                  "write_s": "inside io.write_spectrum_csv and "
                             "io.write_manifest",
                  "solve_s": "the rest of run(): config, steady state, "
                             "spectrum, fit"},
        **{side: {f"{p[:-2]}_ms_q1_median_q3": quartiles(times[side][p])
                  for p in PARTS} for side in trees},
        "loaded_after_run": {side: sorted(loaded[side]) for side in trees},
        "data_files_identical": identical,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--workloads",
                    default="spectrum-line,power-scan,cli-quick")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--samples", type=int, default=41)
    ap.add_argument("--other-seed", type=int,
                    help="a second seed for spectrum-line's pairs")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_cold_job.json"))
    args = ap.parse_args()
    record = {
        "topic": "a cold job's fixed cost: argv parsed by hand (no argparse, "
                 "gettext or locale), each output file written in one call",
        "command": " ".join(["python3", "scripts/bench_cold_job.py"]
                            + ["PARENT_DIR" if a == args.parent else a
                               for a in sys.argv[1:]]),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1},
        "cold_split": cold_split(args.parent, args.samples),
    }
    print(json.dumps(record, indent=1), file=sys.stderr)
    if args.pairs:
        record.update(paired_record(args.parent, "spectrum-line",
                                    args.workloads.split(","), args.pairs,
                                    args.seed, args.seconds))
    if args.pairs and args.other_seed is not None:
        record["claim_on_other_seed"] = paired_record(
            args.parent, "spectrum-line", ["spectrum-line"], args.pairs,
            args.other_seed, args.seconds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
