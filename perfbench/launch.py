"""Run one cold qdiode job the way the console script would.

    python3 perfbench/launch.py <timing-file> <mode> --config ... --out ...

Puts the repository's ``src`` on the path (the ``qdiode`` console script need
not be installed), imports ``qdiode.cli``, calls ``qdiode.cli.run`` and exits
with its return code. Before exiting it writes two CLOCK_MONOTONIC readings to
the timing file: when the import returned and when ``run`` returned. The
caller, which read the same clock just before starting this process, splits
the job's wall time into set-up (start to import done) and run.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qdiode.cli  # noqa: E402

t_import = time.monotonic()
code = qdiode.cli.run(sys.argv[2:])
t_run = time.monotonic()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(f"{t_import!r} {t_run!r}\n")
sys.exit(code)
