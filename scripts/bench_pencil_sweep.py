"""Benchmark of the pencil steady-state route: one eigendecomposition per
sweep side (``operators.pencil_states``), in process, in cold jobs, and in
paired end-to-end runs against a parent checkout.

    python3 scripts/bench_pencil_sweep.py --parent PARENT_DIR \\
        --pairs 10 --seconds 36 --other-seed 11 --out BENCH_pencil_sweep.json

Run from the repository root; PARENT_DIR is a checkout of the parent commit
(``git clone``). One BLAS thread is used throughout, as in perfbench. Every
sample is a fresh interpreter that imports qdiode from one tree, the
parent's and this tree's alternating which goes first.

- ``in_process``: on perfbench power-scan's sweep device at seed 0 (400
  powers), the median of ``--reps`` calls of a one-sided
  ``diode.power_sweep`` (forward, all 400 powers) and of one
  ``diode.driven_state`` (forward, at the middle power), after two warm-up
  calls; each sample's medians are one entry of its quartiles. Both are
  public calls, so a sample runs in either tree.
- ``cold_jobs``: perfbench power-scan's sweep and degenerate jobs at seed 0,
  the time inside ``cli.run`` of each.
- ``pairs``: ``bench_pairs.paired_record`` on every workload, with the claim
  on power-scan's ``run_s``; with ``--other-seed``, ``claim_on_other_seed``:
  power-scan's pairs at that seed, one not used while the change was
  written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

# bench_pairs sets one BLAS thread before numpy loads, and puts src and
# perfbench on the path.
from bench_pairs import ROOT, jobs_mod, paired_record, quartiles
import numpy as np

# One sample in a fresh interpreter: argv is the tree, the kind of sample,
# then its arguments. It prints one JSON line of times in ms.
CHILD = """
import json, statistics, sys, time
tree, kind = sys.argv[1], sys.argv[2]
sys.path.insert(0, tree + "/src")
import numpy as np
from qdiode import cli, config, diode

if kind == "in_process":
    cfg, reps = sys.argv[3], int(sys.argv[4])
    p = config.load("sweep-power", cfg).params
    c = cli._diode_config(p)
    powers = np.geomspace(p["power_min_over_gammabar"],
                          p["power_max_over_gammabar"],
                          p["n_powers"]) * c.gamma_bar
    mid = float(np.sqrt(powers[powers.size // 2]))

    def median_ms(fn):
        times = []
        for k in range(reps + 2):
            t0 = time.perf_counter()
            fn()
            if k >= 2:
                times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    out = {"side_sweep_ms": median_ms(
               lambda: diode.power_sweep(c, powers, ("forward",))),
           "driven_state_ms": median_ms(
               lambda: diode.driven_state(c, mid, 0.0))}
else:
    t0 = time.perf_counter()
    code = cli.run(sys.argv[3:])
    out = {"code": code, "run_ms": 1e3 * (time.perf_counter() - t0)}
print(json.dumps(out))
"""


def child(tree: str, kind: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, tree, kind, *args],
                          capture_output=True, text=True, check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if sample.get("code", 0) != 0:
        raise RuntimeError(f"{tree} {kind}: exit {sample['code']}: "
                           f"{proc.stderr}")
    return sample


def alternate(sides: dict, samples: int, sample) -> dict:
    """``sample(side)`` for each side, ``samples`` rounds after one warm-up
    round, the sides alternating which goes first; each side's readings
    summarized by their quartiles, and the rounds in which the second side
    read lower."""
    names = list(sides)
    readings = {name: {} for name in names}
    for i in range(samples + 1):
        for name in (names if i % 2 == 0 else names[::-1]):
            if i == 0:
                sample(name)
                continue
            for key, value in sample(name).items():
                if key != "code":
                    readings[name].setdefault(key, []).append(value)
    first, second = names
    return {
        **{name: {f"{key}_q1_median_q3": quartiles(values)
                  for key, values in readings[name].items()}
           for name in names},
        f"{second}_lower": {key: sum(b < a for a, b in zip(
            readings[first][key], readings[second][key]))
            for key in readings[first]},
        "samples": samples,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--workloads", default="power-scan,spectrum-line,cli-quick")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--samples", type=int, default=15)
    ap.add_argument("--reps", type=int, default=41)
    ap.add_argument("--other-seed", type=int,
                    help="a second seed for power-scan's pairs")
    ap.add_argument("--out", default=os.path.join(ROOT,
                                                  "BENCH_pencil_sweep.json"))
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    record = {
        "topic": "one eigendecomposition per sweep side: the pencil "
                 "steady-state route of operators.pencil_states",
        "command": " ".join(["python3", "scripts/bench_pencil_sweep.py"]
                            + ["PARENT_DIR" if a == args.parent else a
                               for a in sys.argv[1:]]),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1},
    }
    with tempfile.TemporaryDirectory() as tmp:
        jobs = {j.name: j for j in jobs_mod.make_jobs("power-scan", 0, tmp)}
        jobs_mod.write_configs(tmp, list(jobs.values()))
        argv = {name: jobs_mod.argv(tmp, job, 0) for name, job in jobs.items()}
        cfg = argv["sweep"][argv["sweep"].index("--config") + 1]
        record["in_process"] = {
            "device": "perfbench power-scan sweep job, seed 0",
            "reps": args.reps,
            **alternate(trees, args.samples, lambda side: child(
                trees[side], "in_process", cfg, str(args.reps)))}
        print(json.dumps(record["in_process"], indent=1), file=sys.stderr)
        record["cold_jobs"] = {
            name: alternate(trees, args.samples,
                            lambda side, name=name: child(
                                trees[side], "job", *argv[name]))
            for name in ("sweep", "degenerate")}
        print(json.dumps(record["cold_jobs"], indent=1), file=sys.stderr)
    if args.pairs:
        record.update(paired_record(args.parent, "power-scan",
                                    args.workloads.split(","), args.pairs,
                                    args.seed, args.seconds))
        if args.other_seed is not None:
            record["claim_on_other_seed"] = paired_record(
                args.parent, "power-scan", ["power-scan"], args.pairs,
                args.other_seed, args.seconds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
