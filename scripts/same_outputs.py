"""Check that this tree writes the same data files as another checkout.

    python scripts/same_outputs.py PARENT_DIR [SEED ...]

Runs every job of the benchmark workloads (``perfbench/jobs.py``) at each
seed (default 0 and 11), in this tree and in PARENT_DIR, each as a cold
``python -m qdiode`` with one BLAS thread and that tree's ``src`` on
PYTHONPATH. Compares each job's exit code and the sha256 of every data file
(every output but ``run_manifest.json``), prints each difference and a JSON
summary, and exits 1 on any difference.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import jobs as jobs_mod  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run(tree, workload, seed, workdir):
    """{job name: (exit code, {data file: sha256})} of one workload."""
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, "1"),
           "PYTHONPATH": os.path.join(tree, "src")}
    jobs = jobs_mod.make_jobs(workload, seed, workdir)
    jobs_mod.write_configs(workdir, jobs)
    out = {}
    for job in jobs:
        code = subprocess.run(
            [sys.executable, "-m", "qdiode", *jobs_mod.argv(workdir, job, seed)],
            cwd=tree, env=env, capture_output=True).returncode
        out[job.name] = (code, {name: hashlib.sha256(data).hexdigest()
                                for name, data in
                                jobs_mod.data_files(workdir, job).items()})
    return out


def main(argv):
    parent, seeds = argv[0], [int(s) for s in argv[1:]] or [0, 11]
    diffs, runs = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in jobs_mod.WORKLOADS:
                got, want = (run(tree, workload, seed,
                                 os.path.join(tmp, side, workload, str(seed)))
                             for side, tree in (("this", ROOT), ("parent", parent)))
                for name in want:
                    runs += 1
                    if got[name] != want[name]:
                        diffs.append(f"seed {seed} {workload}/{name}: "
                                     f"{got[name]} != parent {want[name]}")
                        print(diffs[-1])
    print(json.dumps({"seeds": seeds, "jobs": runs, "differences": len(diffs),
                      "same": not diffs}))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
