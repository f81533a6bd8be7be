"""Check that this tree writes the same data files as another checkout.

    python scripts/same_outputs.py PARENT_DIR [SEED ...]

Runs every job of the benchmark workloads (``perfbench/jobs.py``) at each
seed (default 0 and 11), in this tree and in PARENT_DIR, each as a cold
``python -m qdiode`` with one BLAS thread and that tree's ``src`` on
PYTHONPATH. Compares each job's exit code and the bytes of every data file
(every output but ``run_manifest.json``), prints each difference and a JSON
summary, and exits 1 on any difference. For a data file that differs, the
summary gives the largest absolute and relative move of its numbers, in the
order they are written, and whether the text between them is the same.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

from bench_pairs import BLAS_ENV, ROOT, jobs_mod


def run(tree, workload, seed, workdir):
    """{job name: (exit code, {data file: bytes})} of one workload."""
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, "1"),
           "PYTHONPATH": os.path.join(tree, "src")}
    jobs = jobs_mod.make_jobs(workload, seed, workdir)
    jobs_mod.write_configs(workdir, jobs)
    out = {}
    for job in jobs:
        code = subprocess.run(
            [sys.executable, "-m", "qdiode", *jobs_mod.argv(workdir, job, seed)],
            cwd=tree, env=env, capture_output=True).returncode
        out[job.name] = (code, jobs_mod.data_files(workdir, job))
    return out


# A number as the data files write one, captured so re.split keeps it.
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
                    r"|[-+]?(?:nan|inf))")


def largest_move(got: bytes, want: bytes) -> dict:
    """The largest absolute and relative difference between the numbers of
    two data files, in the order they are written, and whether the text
    between the numbers is the same."""
    got_p, want_p = (NUMBER.split(data.decode()) for data in (got, want))
    same_text = (len(got_p) == len(want_p)
                 and got_p[0::2] == want_p[0::2])
    move = rel = 0.0
    for a, b in zip(map(float, got_p[1::2]), map(float, want_p[1::2])):
        if a == b or (a != a and b != b):               # NaN == NaN here
            continue
        diff = abs(a - b)
        if diff != diff:                                # NaN beside a number
            diff = float("inf")
        move = max(move, diff)
        rel = max(rel, diff / abs(b) if b else float("inf"))
    return {"max_abs": move, "max_rel": rel, "same_text": same_text}


def main(argv):
    parent, seeds = argv[0], [int(s) for s in argv[1:]] or [0, 11]
    diffs, moves, runs = [], {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in jobs_mod.WORKLOADS:
                got, want = (run(tree, workload, seed,
                                 os.path.join(tmp, side, workload, str(seed)))
                             for side, tree in (("this", ROOT), ("parent", parent)))
                for name in want:
                    runs += 1
                    (code, files), (want_code, want_files) = got[name], want[name]
                    if code != want_code or files.keys() != want_files.keys():
                        diffs.append(f"seed {seed} {workload}/{name}: exit "
                                     f"{code} {sorted(files)} != parent "
                                     f"{want_code} {sorted(want_files)}")
                        print(diffs[-1])
                        continue
                    for fname in files:
                        if files[fname] != want_files[fname]:
                            key = f"seed {seed} {workload}/{name}/{fname}"
                            moves[key] = largest_move(files[fname],
                                                      want_files[fname])
                            diffs.append(f"{key}: {moves[key]}")
                            print(diffs[-1])
    print(json.dumps({"seeds": seeds, "jobs": runs, "differences": len(diffs),
                      "same": not diffs, "moves": moves}))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
