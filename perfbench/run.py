"""qdiode benchmark: cold CLI jobs end to end, and a traced replay per layer.

    python3 perfbench/run.py --workload cli-quick --seed 0 --seconds 10 --trace 0

Run from the repository root. A workload is a fixed sequence of
``qdiode <mode>`` jobs (see ``jobs.py``) whose device parameters are drawn from
``--seed``. One client runs them in a closed loop: each job is a fresh
interpreter started by ``launch.py`` only after the previous job exited, and
the whole sequence (a pass) repeats until ``--seconds`` have gone by. Every
job's outputs are checked, and every rerun must be byte-identical to the
first run.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:

- ``total_s``      wall time of the jobs, spawn to exit, summed over the jobs
- ``setup_s``      spawn until ``import qdiode.cli`` returned (median of jobs)
- ``run_s``        time inside ``qdiode.cli.run``, summed over the jobs
- ``cpu_s``        user + system CPU of the jobs, summed over the jobs
- ``peak_rss_mb``  largest resident set of any job in a pass (median)
- ``ok_frac``      share of attempted jobs that exited 0 with right outputs

The times are those of a host of reference speed. The machine's speed drifts
by tens of percent over seconds and minutes, and the deterministic jobs slow
down and speed up with it. So the benchmark times ``calibrate()``, a fixed
piece of work that uses nothing of qdiode, before the first job and after
every job, and scales each job's times by ``REFERENCE_CAL_S`` over the mean
of the two readings around it; a job contributes the median of its scaled
passes. A change in the program passes through the scale in full; drift of
the host mostly cancels. Each job's unscaled quartiles are printed and every
reading is kept in ``result.json``.

With ``--trace 1`` the jobs are instead replayed in one process by
``replay.py``, alternately without and with spans around every public qdiode
function, and the last line reports the per-layer metrics listed in
``BENCHMARK.json`` (``layer_map.json`` says which end-to-end metric each one
should move, on which workload). ``--write-reference`` stores the checked
outputs of the run as the reference values of its seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback

# One BLAS thread, in this process and in every job it starts (they inherit
# the environment). On a few shared cores a second BLAS thread only spins and
# makes each call wait on the other core, so its timings follow the host's
# load; the jobs run no faster with it. Set before numpy loads its BLAS.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import numpy  # noqa: E402
import scipy.linalg  # noqa: E402

import jobs as jobs_mod  # noqa: E402
import tracer as tracer_mod  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REFERENCE_FILE = os.path.join(HERE, "reference.json")
TIME_LIMIT_S = 150.0           # no new pass or job after this many seconds
JOB_TIMEOUT_S = 90.0
REFERENCE_CAL_S = 0.26         # median calibrate() on a 2-vCPU Xeon VM
IMPORT_METRICS = {
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_constants_s": "scipy.constants",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.qdiode_s": "qdiode",
}
LAYERS = ("cli", "config", "operators", "single_qubit", "diode", "spectrum",
          "fitting", "mirror", "io")


# -----------------------------------------------------------------------------
#                               Processes
# -----------------------------------------------------------------------------

def spawn(args: list[str], stdout_path: str, stderr_path: str,
          timeout: float) -> tuple[int, float, float, float, float]:
    """Run a process to its end; kill it after ``timeout`` seconds.

    Returns (exit code, start on CLOCK_MONOTONIC, wall s, cpu s, max rss MB);
    the CPU time and resident set come from the process's own rusage.
    """
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout_path, write, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, write, 0o644)]
    t0 = time.monotonic()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.monotonic() - t0
    return (os.waitstatus_to_exitcode(status), t0, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def environment() -> dict:
    """What the result depends on besides the code: machine and versions."""
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            sha = fh.read().strip()
        if sha.startswith("ref: "):
            ref, sha = sha[5:], None
            loose = os.path.join(ROOT, ".git", ref)
            packed = os.path.join(ROOT, ".git", "packed-refs")
            if os.path.isfile(loose):
                with open(loose, encoding="utf-8") as fh:
                    sha = fh.read().strip()
            elif os.path.isfile(packed):
                with open(packed, encoding="utf-8") as fh:
                    sha = next((line.split()[0] for line in fh
                                if line.rstrip().endswith(" " + ref)), None)
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qdiode")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


# -----------------------------------------------------------------------------
#                               Output checks
# -----------------------------------------------------------------------------

class Verifier:
    """Checks every job run: exit code, outputs, byte-identical reruns.

    The first run of a job that exits 0 is checked in full (invariants, and
    the reference values when given); every later run must reproduce its data
    files byte for byte and inherits its verdict.
    """

    def __init__(self, workdir, jobs, reference):
        self.workdir = workdir
        self.checker = jobs_mod.Checker(workdir, jobs)
        self.reference = reference
        self.first: dict[str, tuple[dict, list[str]]] = {}
        self.problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def verify(self, job, code: int) -> bool:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        else:
            try:
                files = jobs_mod.data_files(self.workdir, job)
            except OSError as exc:
                files, problems = None, [f"cannot read outputs: {exc}"]
            if files is not None and job.name not in self.first:
                try:
                    problems = self.checker.check(job)
                    if self.reference is not None and not problems:
                        problems = jobs_mod.compare(
                            job, self.checker.summaries[job.name],
                            self.reference[job.name])
                except Exception:
                    problems = ["output check raised:\n" + traceback.format_exc()]
                self.first[job.name] = (files, problems)
            elif files is not None:
                first_files, first_problems = self.first[job.name]
                problems = list(first_problems)
                if files != first_files:
                    problems.append("data files differ from the first run")
        if problems:
            self.failed += 1
            seen = self.problems.setdefault(job.name, [])
            seen.extend(p for p in problems if p not in seen)
        return not problems


# -----------------------------------------------------------------------------
#                          End-to-end measurement
# -----------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds this host takes for a fixed piece of work like a job's run.

    The three things qdiode runs spend their time on, in about equal parts:
    singular value decompositions and matrix exponentials of 16x16 complex
    matrices, and interpreted Python; about a quarter of a second.
    """
    t0 = time.perf_counter()
    a = (numpy.arange(256.0).reshape(16, 16) / 256 + 1j * numpy.eye(16)) / 4
    for _ in range(2000):
        numpy.linalg.svd(a)
    for _ in range(2000):
        scipy.linalg.expm(a)
    x = 0
    for i in range(1600000):
        x += i % 7
    return time.perf_counter() - t0


def run_cold(workdir, jobs, seed, seconds, verifier, t_start):
    """Closed-loop passes of cold jobs until ``seconds`` have gone by."""
    launcher = os.path.join(HERE, "launch.py")
    passes = []
    cals = [calibrate()]
    t_begin = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - t_begin < seconds:
        if time.monotonic() + last - t_start > TIME_LIMIT_S:
            break
        p0 = time.monotonic()
        record = []
        for job in jobs:
            jd = jobs_mod.job_dir(workdir, job)
            timing = os.path.join(jd, "timing.txt")
            if os.path.exists(timing):
                os.remove(timing)
            budget = min(JOB_TIMEOUT_S, t_start + TIME_LIMIT_S + 20.0
                         - time.monotonic())
            code, t0, wall, cpu, rss = spawn(
                [sys.executable, launcher, timing]
                + jobs_mod.argv(workdir, job, seed),
                os.path.join(jd, "stdout.txt"), os.path.join(jd, "stderr.txt"),
                budget)
            setup = run = None
            try:
                with open(timing, encoding="utf-8") as fh:
                    t_import, t_run = map(float, fh.read().split())
                setup, run = t_import - t0, t_run - t_import
            except (OSError, ValueError):
                pass                     # the job failed before it finished
            verifier.verify(job, code)
            cals.append(calibrate())
            # The host's speed during the job, from the readings around it.
            host = (cals[-2] + cals[-1]) / 2
            record.append({"job": job.name, "code": code, "wall_s": wall,
                           "setup_s": setup, "run_s": run, "cpu_s": cpu,
                           "rss_mb": rss, "cal_s": host})
        passes.append(record)
        last = time.monotonic() - p0
    med = statistics.median
    # Each job's runs that finished; a job that never did adds nothing.
    done = [[p[k] for p in passes if p[k]["run_s"] is not None]
            for k in range(len(jobs))]

    def scaled(r, field):
        return r[field] * REFERENCE_CAL_S / r["cal_s"]

    def summed(field):
        """Each job's median scaled time over its passes, summed."""
        return sum(med(scaled(r, field) for r in runs) for runs in done if runs)

    setups = [scaled(r, "setup_s") for runs in done for r in runs]
    metrics = {
        "total_s": summed("wall_s"),
        "setup_s": med(setups) if setups else float("nan"),
        "run_s": summed("run_s"),
        "cpu_s": summed("cpu_s"),
        "peak_rss_mb": med(max(r["rss_mb"] for r in p) for p in passes),
        "ok_frac": 1.0 - verifier.failed / verifier.attempted,
    }
    # Each job's unscaled [q1, median, q3] over its passes.
    per_job = {}
    for job, runs in zip(jobs, done):
        per_job[job.name] = {
            f: [round(q, 4) for q in statistics.quantiles(
                [r[f] for r in runs], n=4, method="inclusive")]
            if len(runs) > 1 else None
            for f in ("wall_s", "setup_s", "run_s", "cpu_s")}
    return metrics, {"passes": passes, "per_job": per_job,
                     "calibration": {"cal_s": cals}}


# -----------------------------------------------------------------------------
#                          Traced per-layer replay
# -----------------------------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output.

    ``qdiode`` is the summed cumulative time of the outermost qdiode entries,
    which is everything ``import qdiode.cli`` pulled in.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        try:
            cumulative = int(fields[1]) * 1e-6
        except (IndexError, ValueError):
            continue                     # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((name.strip(), depth, cumulative))
    out: dict[str, float] = {}
    qdiode_total = 0.0
    ancestors: list[tuple[str, int]] = []
    # A module's line follows the lines of everything it imported, so
    # walking backwards visits each parent before its children.
    for name, depth, cumulative in reversed(entries):
        while ancestors and ancestors[-1][1] >= depth:
            ancestors.pop()
        is_qdiode = name == "qdiode" or name.startswith("qdiode.")
        if is_qdiode and not any(a == "qdiode" or a.startswith("qdiode.")
                                 for a, _ in ancestors):
            qdiode_total += cumulative
        ancestors.append((name, depth))
        out.setdefault(name, cumulative)
    out["qdiode"] = qdiode_total
    return out


def layer_metrics(spans, names, jobs, rows_failed,
                  bytes_written) -> tuple[dict, set]:
    """Per-layer metrics of one traced replay, and the names of functions
    whose metrics are absent because the program no longer has them.

    ``names`` are the span names the tracer wrapped; ``rows_failed`` maps a
    job to its sweep rows that did not solve. Import times and the tracing
    overhead come from several replays and are added by the caller.
    """
    by_name, by_layer = tracer_mod.aggregate(spans)
    absent: set[str] = set()

    def fn(name, field="self_s"):
        if name not in names:
            absent.add(name)
            return 0
        return by_name.get(name, {}).get(field, 0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, {}).get("self_s", 0.0)
    m["config.calls"] = by_layer.get("config", {}).get("calls", 0)
    for f in ("calls", "self_s", "errors"):
        m[f"operators.steady_state.{f}"] = fn("operators.steady_state", f)
    for f in ("calls", "self_s"):
        m[f"operators.liouvillian_matrix.{f}"] = fn("operators.liouvillian_matrix", f)
        m[f"single_qubit.build_single_qubit_liouvillian.{f}"] = fn(
            "single_qubit.build_single_qubit_liouvillian", f)
    m["diode.build_diode_liouvillian.self_s"] = fn("diode.build_diode_liouvillian")
    # Solves per needed steady state, over the jobs whose every row solved:
    # 1.0 means no state is solved twice. Failed rows are counted apart.
    solves = points = 0
    for job in jobs:
        if job.points and not rows_failed.get(job.name):
            job_names, _ = tracer_mod.aggregate(spans, job=job.name)
            solves += job_names.get("operators.steady_state", {}).get("calls", 0)
            points += job.points
    if "operators.steady_state" not in names:
        absent.add("operators.steady_state")
    m["diode.solves_per_point"] = solves / points if points else 0.0
    m["diode.rows_failed"] = sum(rows_failed.values())
    m["spectrum.expm.calls"] = fn("spectrum.expm", "calls")
    for f in ("two_time_correlation", "half_sided_transform", "psd",
              "fit_lorentzian"):
        m[f"spectrum.{f}.self_s"] = fn(f"spectrum.{f}")
    m["spectrum.least_squares.nfev"] = fn("spectrum.least_squares", "value")
    m["fitting.fit_single_qubit.self_s"] = fn("fitting.fit_single_qubit")
    m["fitting.iterations"] = fn("fitting.fit_single_qubit", "value")
    m["fitting.model_evals"] = fn("single_qubit.transmission_analytic", "calls")
    m["mirror.simulate_mirror.self_s"] = fn("mirror.simulate_mirror")
    samples = fn("mirror.simulate_mirror", "value")
    busy = fn("mirror.simulate_mirror", "incl_s")
    m["mirror.samples"] = samples
    m["mirror.samples_per_s"] = samples / busy if busy else 0.0
    m["io.bytes_written"] = bytes_written
    m["trace.run_s"] = sum(s[tracer_mod.END] - s[tracer_mod.START]
                           for s in spans if s[tracer_mod.PARENT] < 0)
    return m, absent


def run_traced(workdir, jobs, seed, seconds, verifier, t_start):
    """Alternate untraced and traced in-process replays of the jobs."""
    replay = os.path.join(HERE, "replay.py")
    jobs_path = os.path.join(workdir, "replay_jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump([{"name": j.name, "argv": jobs_mod.argv(workdir, j, seed)}
                   for j in jobs], fh)
    runs = {0: [], 1: []}
    per_replay, imports, absent, per_job, accounted = [], [], set(), {}, []
    t_begin = time.monotonic()
    last = 0.0
    while not runs[1] or time.monotonic() - t_begin < seconds:
        if time.monotonic() + last - t_start > TIME_LIMIT_S:
            break
        p0 = time.monotonic()
        # Alternate which replay of a pair goes first, so that neither
        # always meets the colder machine.
        for trace in ((0, 1) if len(runs[1]) % 2 == 0 else (1, 0)):
            result_path = os.path.join(workdir, f"replay{trace}.json")
            err_path = os.path.join(workdir, f"replay{trace}.err")
            budget = min(2 * JOB_TIMEOUT_S, t_start + TIME_LIMIT_S + 20.0
                         - time.monotonic())
            code, _, _, _, _ = spawn(
                [sys.executable, "-X", "importtime", replay, jobs_path,
                 result_path, str(trace)],
                os.path.join(workdir, f"replay{trace}.out"), err_path, budget)
            if code != 0:
                for job in jobs:
                    verifier.verify(job, code)
                continue
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            codes = {r["name"]: r["code"] for r in result["jobs"]}
            for job in jobs:
                verifier.verify(job, codes.get(job.name, -1))
            with open(err_path, encoding="utf-8") as fh:
                imports.append(parse_importtime(fh.read()))
            runs[trace].append(sum(r["run_s"] for r in result["jobs"]))
            if trace:
                written = sum(
                    os.path.getsize(os.path.join(d, f))
                    for d in (jobs_mod.out_dir(workdir, j) for j in jobs)
                    for f in os.listdir(d))
                m, gone = layer_metrics(result["spans"], set(result["names"]),
                                        jobs, verifier.checker.rows_failed,
                                        written)
                per_replay.append(m)
                absent |= gone
                if m["trace.run_s"]:
                    accounted.append(sum(m[f"{layer}.self_s"] for layer in LAYERS)
                                     / m["trace.run_s"])
                if not per_job:
                    for job in jobs:
                        names, _ = tracer_mod.aggregate(result["spans"],
                                                        job=job.name)
                        per_job[job.name] = {
                            n: names.get(n, {}).get("calls", 0)
                            for n in ("operators.steady_state", "spectrum.expm")}
                        per_job[job.name]["rows_failed"] = \
                            verifier.checker.rows_failed.get(job.name, 0)
        last = time.monotonic() - p0
    med = statistics.median
    if not per_replay:
        return None, {"absent": sorted(absent)}
    metrics = {k: med(m[k] for m in per_replay) for k in per_replay[0]}
    # Import times come from every replay, traced or not.
    for k, mod in IMPORT_METRICS.items():
        metrics[k] = med(i.get(mod, 0.0) for i in imports)
    metrics["trace.overhead"] = med(runs[1]) / med(runs[0]) if runs[0] else 0.0
    return metrics, {"absent": sorted(absent), "per_job": per_job,
                     "layer_share_of_run_s": med(accounted) if accounted else 0.0,
                     "untraced_run_s": runs[0], "traced_run_s": runs[1]}


# -----------------------------------------------------------------------------
#                                  Main
# -----------------------------------------------------------------------------

def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=jobs_mod.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's checked outputs as the "
                             "reference values of its seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qdiode", "cli.py")):
        print("no qdiode sources under src/qdiode; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = jobs_mod.make_jobs(args.workload, args.seed, workdir)
    jobs_mod.write_configs(workdir, jobs)
    reference = None
    if args.seed == jobs_mod.REFERENCE_SEED and not args.write_reference:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    verifier = Verifier(workdir, jobs, reference)
    env = environment()
    # Set-up: compile the package's bytecode and warm the file cache once,
    # as an installed package would have them.
    code, _, _, _, _ = spawn(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import qdiode.cli", os.path.join(ROOT, "src")],
        os.devnull, os.path.join(workdir, "warmup.err"), JOB_TIMEOUT_S)
    if code != 0:
        print("cannot import qdiode.cli; see " + os.path.join(workdir, "warmup.err"),
              file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_cold
    metrics, detail = run(workdir, jobs, args.seed, args.seconds, verifier,
                          t_start)
    if metrics is None:
        print("no traced replay completed", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           "do not match BENCHMARK.json")
    correct = verifier.failed == 0

    if args.write_reference:
        if not correct:
            print("outputs failed their checks; reference not written",
                  file=sys.stderr)
            return 1
        stored = {}
        if os.path.isfile(REFERENCE_FILE):
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored[args.workload] = verifier.checker.summaries
        with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")

    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "env": env, "metrics": metrics,
                   "problems": verifier.problems, **detail}, fh, indent=1)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    checked = ("written" if args.write_reference else
               "checked" if reference is not None else
               f"not checked (seed {jobs_mod.REFERENCE_SEED} only)")
    print(f"workload {args.workload}  seed {args.seed}  jobs attempted "
          f"{verifier.attempted}  failed {verifier.failed}  reference {checked}")
    if "passes" in detail:
        print(f"passes {len(detail['passes'])}  fail_frac "
              f"{verifier.failed / verifier.attempted:.4g}")
    for job, problems in verifier.problems.items():
        for p in problems:
            print(f"FAILED {job}: {p}")
    for job, counts in detail.get("per_job", {}).items():
        print(f"job {job}: " + "  ".join(f"{k} {v}" for k, v in counts.items()))
    if "calibration" in detail:
        cal = detail["calibration"]["cal_s"]
        print(f"calibrate() took {min(cal):.4f} to {max(cal):.4f} s, median "
              f"{statistics.median(cal):.4f} s; times are scaled to "
              f"{REFERENCE_CAL_S} s")
    if "layer_share_of_run_s" in detail:
        print(f"layer self times add up to {detail['layer_share_of_run_s']:.6f} "
              "of the traced run_s")
    if detail.get("absent"):
        print("absent (function no longer in qdiode, reported as 0): "
              + ", ".join(detail["absent"]))
    for name in sorted(metrics):
        print(f"  {name:<52} {metrics[name]:>14.6g} {declared[name]}")
    print(json.dumps({
        "correct": correct, "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]}
                    for k in sorted(metrics)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
