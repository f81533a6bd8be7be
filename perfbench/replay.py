"""Replay a workload's jobs in one process, with or without tracing.

    python3 -X importtime perfbench/replay.py <jobs.json> <result.json> <0|1>

``jobs.json`` is a list of ``{"name": ..., "argv": [...]}``. The script
imports ``qdiode.cli`` first, so that ``-X importtime`` on stderr shows the
package's own import cost, then calls ``qdiode.cli.run`` once per job. With
tracing on, every public qdiode function binding is wrapped first and the
spans are written to the result file at the end, together with each job's
exit code and time inside ``run``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qdiode.cli  # noqa: E402

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(jobs_path: str, result_path: str, trace: bool) -> None:
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    results = []
    try:
        for job in jobs:
            if tracer is not None:
                tracer.job = job["name"]
            t0 = time.perf_counter()
            code = qdiode.cli.run(job["argv"])
            results.append({"name": job["name"], "code": code,
                            "run_s": time.perf_counter() - t0})
    finally:
        if tracer is not None:
            tracer.uninstall()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": results,
                   "names": sorted(tracer.names) if tracer else [],
                   "spans": tracer.spans if tracer else []}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
