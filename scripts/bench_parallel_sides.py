"""Benchmark of a power sweep whose two sides are solved at once on bound
workers: in-process timings, the crossover that sets the floor, and paired
end-to-end runs against a parent checkout.

    python3 scripts/bench_parallel_sides.py --parent PARENT_DIR \\
        --pairs 10 --seconds 36 --out BENCH_parallel_sides.json

With ``--keep-pairs`` and no ``--parent``, the in-process parts are
measured again and the paired runs of the existing record are kept.

Run from the repository root; PARENT_DIR is a checkout of the parent commit
(``git clone``). One BLAS thread is used throughout, as in perfbench.

- ``in_process``: ``diode.power_sweep`` on perfbench power-scan's two
  devices at seed 0 (400 powers on the lossy device, 100 on the lossless
  delta = 2e-5 device), timed with one allowed CPU (the calling thread's
  mask narrowed to its lowest CPU, so the sides run inline) and with the
  real mask, alternately. Rows (by repr), errors and diagnostics of the two
  are compared.
- ``crossover``: both devices over n powers, inline against two workers
  (the floor lowered to 1 in this process only), in ``--rounds`` rounds.
  A round's crossover is the smallest n from which two workers win most
  pairs at every larger n measured, on both devices; the floor is the
  largest round's.
- ``pairs``: ``bench_pairs.pairs``, the paired perfbench runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

# bench_pairs sets one BLAS thread before numpy loads, and puts src and
# perfbench on the path.
from bench_pairs import ROOT, jobs_mod, paired_record, quartiles, verdict
import numpy as np
from qdiode import cli, config, diode

CROSSOVER_POWERS = (4, 16, 32, 48, 64, 80, 100, 128, 160, 200, 400)


def sweep_devices():
    """(name, DiodeConfig, powers) of perfbench power-scan's two sweeps."""
    with tempfile.TemporaryDirectory() as tmp:
        sweeps = jobs_mod.make_jobs("power-scan", 0, tmp)
    out = []
    for job in sweeps:
        p = config.validate("sweep-power", job.config).params
        c = cli._diode_config(p)
        powers = np.geomspace(p["power_min_over_gammabar"],
                              p["power_max_over_gammabar"],
                              p["n_powers"]) * c.gamma_bar
        out.append((job.name, c, powers))
    return out


def timed_sweep(c, powers, one_cpu: bool):
    """(seconds, rows, info) of one two-sided power_sweep; with one_cpu
    the calling thread's mask is narrowed to its lowest CPU meanwhile."""
    mask = os.sched_getaffinity(0)
    if one_cpu:
        os.sched_setaffinity(0, {min(mask)})
    try:
        info: dict = {}
        t0 = time.perf_counter()
        rows = diode.power_sweep(c, powers, info=info)
        return time.perf_counter() - t0, rows, info
    finally:
        os.sched_setaffinity(0, mask)


def in_process(repeats: int) -> dict:
    out = {}
    for name, c, powers in sweep_devices():
        times = {"one_cpu": [], "real_mask": []}
        results = {}
        for r in range(repeats + 2):
            order = (True, False) if r % 2 == 0 else (False, True)
            for one in order:
                dt, rows, info = timed_sweep(c, powers, one)
                key = "one_cpu" if one else "real_mask"
                results[key] = ([repr(row) for row in rows], info)
                if r >= 2:          # the first two rounds warm up
                    times[key].append(dt * 1e3)
        out[name] = {
            "n_powers": int(powers.size),
            "failed_rows": sum(row.error is not None
                               for row in diode.power_sweep(c, powers)),
            "repeats": repeats,
            "one_cpu_ms_q1_median_q3": quartiles(times["one_cpu"]),
            "real_mask_ms_q1_median_q3": quartiles(times["real_mask"]),
            "rows_errors_info_identical":
                results["one_cpu"] == results["real_mask"],
        }
    return out


def crossover_round(repeats: int) -> tuple[list[dict], int | None]:
    """Inline against two workers on both devices over CROSSOVER_POWERS
    powers in each device's range: the grid, and the smallest n from which
    two workers win more than half the alternating pairs at every larger n
    and on both devices."""
    grid = []
    for n in CROSSOVER_POWERS:
        for name, c, powers in sweep_devices():
            ps = np.geomspace(powers[0], powers[-1], n)
            times = {True: [], False: []}
            for r in range(repeats + 2):
                for one in ((True, False) if r % 2 == 0 else (False, True)):
                    dt = timed_sweep(c, ps, one)[0]
                    if r >= 2:
                        times[one].append(dt * 1e3)
            grid.append({
                "device": name, "n_powers": n,
                "inline_ms_median": statistics.median(times[True]),
                "two_workers_ms_median": statistics.median(times[False]),
                "two_workers_win": sum(
                    a > b for a, b in zip(times[True], times[False]))})
    wins = [all(2 * g["two_workers_win"] > repeats for g in grid
                if g["n_powers"] == n) for n in CROSSOVER_POWERS]
    first = next((k for k in range(len(wins)) if all(wins[k:])), None)
    return grid, None if first is None else CROSSOVER_POWERS[first]


def crossover(repeats: int, rounds: int) -> dict:
    """``crossover_round`` repeated, minutes apart as the host's speed
    drifts; the crossover is the largest of the rounds', so that at and
    above it two workers won most pairs in every round."""
    floor = diode._PARALLEL_SIDES_MIN_POWERS
    diode._PARALLEL_SIDES_MIN_POWERS = 1
    try:
        measured = [crossover_round(repeats) for _ in range(rounds)]
    finally:
        diode._PARALLEL_SIDES_MIN_POWERS = floor
    per_round = [n for _, n in measured]
    return {"devices": "perfbench power-scan's two devices at seed 0, each "
                       "over its own power range",
            "repeats": repeats,
            "rule": "per round, the smallest n from which two workers win "
                    "more than half the pairs at every larger n, on both "
                    "devices; the crossover is the largest over the rounds",
            "rounds": [{"crossover_n_powers": n, "grid": grid}
                       for grid, n in measured],
            "crossover_n_powers": (None if None in per_round
                                   else max(per_round)),
            "floor_in_code": floor}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit; "
                    "without it the paired runs are skipped")
    ap.add_argument("--workloads", default="power-scan,cli-quick,spectrum-line")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--repeats", type=int, default=41)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--keep-pairs", action="store_true",
                    help="without --parent, keep the paired runs of the "
                    "existing --out record")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_parallel_sides.json"))
    args = ap.parse_args()
    record = {
        "topic": "a power sweep's two sides solved at once, one per worker "
                 "bound to its CPU, through the package's one worker map "
                 "(_workers.bound_map, shared with mirror-mc)",
        "command": " ".join(["python3", "scripts/bench_parallel_sides.py"]
                            + ["PARENT_DIR" if a == args.parent else a
                               for a in sys.argv[1:]]),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1},
        "in_process": in_process(args.repeats),
        "crossover": crossover(args.repeats, args.rounds),
    }
    print(json.dumps(record, indent=1), file=sys.stderr)
    if args.keep_pairs and not args.parent:
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        record["pairs_command"] = old.get("pairs_command", old["command"])
        for key in ("parent", "claim", "pairing", "pairs"):
            record[key] = old[key]
        record["verdict"] = verdict(record["pairs"], "power-scan")
    elif args.parent:
        record.update(paired_record(args.parent, "power-scan",
                                    args.workloads.split(","), args.pairs,
                                    args.seed, args.seconds))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
