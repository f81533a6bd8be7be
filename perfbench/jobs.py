"""Benchmark workloads: job configs drawn from the seed, and output checks.

Each workload is a fixed list of ``qdiode <mode>`` jobs. The seed only draws
device parameters; the job list and the problem sizes are the same for every
seed. Configs use only keys that the config schema keeps long term: no
``n_taus`` and no ``--threads``, so a change of spectrum method or sweep
engine runs this benchmark unchanged.

Every job's outputs are checked against physics invariants that hold on any
seed; on the reference seed they are also compared with stored values, at
tolerances loose enough for a change of numerical method (a resolvent
spectrum moves the PSD by about 1e-6 of its peak, a batched steady-state
solve moves transmissions by about 1e-14).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("cli-quick", "power-scan", "spectrum-line")

REFERENCE_SEED = 0
MIRROR_SIGMAS = 5.0          # allowed |sample - analytic| variance, in sigmas
FIT_RTOL = 1e-3              # fitted gamma_r against the generating gamma_r
INVARIANT_TOL = 1e-9         # |t| <= 1, populations in [0, 1]


@dataclass(frozen=True)
class Job:
    """One ``qdiode <mode>`` run.

    ``points`` is the number of steady states the job needs (powers times
    drive directions); ``failed_rows`` says whether the job's sweep is
    expected to contain rows that fail to solve.
    """

    name: str
    mode: str
    config: dict
    points: int
    failed_rows: bool = False


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def _device(rng: random.Random) -> dict:
    """A lossy two-qubit device near the paper's operating point."""
    return {
        "gamma_r1_hz": _sig(rng.uniform(65e6, 75e6)),
        "gamma_r2_hz": _sig(rng.uniform(65e6, 75e6)),
        "gamma_nr_hz": _sig(rng.uniform(100e3, 300e3)),
        "gamma_phi_hz": _sig(rng.uniform(100e3, 300e3)),
        "delta": _sig(rng.uniform(0.025, 0.04)),
    }


def job_dir(workdir: str, job: Job) -> str:
    return os.path.join(workdir, job.name)


def out_dir(workdir: str, job: Job) -> str:
    return os.path.join(workdir, job.name, "out")


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's job list, with device parameters drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    dev = _device(rng)
    power = _sig(rng.uniform(0.03, 0.08))
    if workload == "cli-quick":
        gamma_r = _sig(rng.uniform(50e6, 100e6))
        freq = {"gamma_r_hz": gamma_r,
                "gamma_phi_hz": _sig(gamma_r * rng.uniform(0.002, 0.02)),
                "power_over_gamma_r": 1e-4, "n_points": 201}
        freq_csv = os.path.join(workdir, "freq", "out", "frequency_sweep.csv")
        fit = {"input_csv": freq_csv,
               "initial_gamma_r_hz": _sig(gamma_r * rng.uniform(0.8, 1.25)),
               "power_over_gamma_r": 1e-4}
        mirror = {**dev, "p_over_gammabar": power,
                  "sigma_w": _sig(rng.uniform(0.05, 0.2)),
                  "power_min": 0.0, "power_max": _sig(rng.uniform(0.5, 2.0)),
                  "n_powers": 10, "n_samples": 2 ** 18}
        return [Job("steady", "steady-state",
                    {**dev, "p_over_gammabar": power}, points=2),
                Job("freq", "sweep-frequency", freq, points=201),
                Job("fit", "fit", fit, points=0),
                Job("mirror", "mirror-mc", mirror, points=2)]
    if workload == "power-scan":
        sweep = {**dev, "power_min_over_gammabar": 1e-4,
                 "power_max_over_gammabar": 10.0, "n_powers": 400}
        # Fixed, nearly degenerate and lossless: about a fifth of the rows
        # have no unique steady state and must come back as NaN rows.
        degenerate = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": 2e-5,
                      "power_min_over_gammabar": 1e-3,
                      "power_max_over_gammabar": 10.0, "n_powers": 100}
        return [Job("sweep", "sweep-power", sweep, points=800),
                Job("degenerate", "sweep-power", degenerate, points=200,
                    failed_rows=True)]
    if workload == "spectrum-line":
        base = {**dev, "p_over_gammabar": power, "n_freq": 401}
        return [Job("forward", "spectrum",
                    {**base, "direction": "forward", "port": "transmitted"},
                    points=1),
                Job("reverse", "spectrum",
                    {**base, "direction": "reverse", "port": "reflected"},
                    points=1)]
    raise ValueError(f"unknown workload {workload!r}")


def argv(workdir: str, job: Job, seed: int) -> list[str]:
    """The qdiode command-line arguments of a job, after the program name."""
    return [job.mode, "--config", os.path.join(job_dir(workdir, job), "config.json"),
            "--out", out_dir(workdir, job), "--seed", str(seed)]


def write_configs(workdir: str, jobs: list[Job]) -> None:
    for job in jobs:
        os.makedirs(out_dir(workdir, job), exist_ok=True)
        with open(os.path.join(job_dir(workdir, job), "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(job.config, fh, indent=2, sort_keys=True)


def data_files(workdir: str, job: Job) -> dict[str, bytes]:
    """Contents of the job's data files: every output but the manifest."""
    d = out_dir(workdir, job)
    files = {}
    for name in sorted(os.listdir(d)):
        if name != "run_manifest.json":
            with open(os.path.join(d, name), "rb") as fh:
                files[name] = fh.read()
    return files


# -----------------------------------------------------------------------------
#                               Output checks
# -----------------------------------------------------------------------------

def _read_table(path: str) -> dict[str, list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {h: [float(r[k]) for r in body] for k, h in enumerate(header)}


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def efficiency(t_f: float, t_r: float) -> float:
    """The diode efficiency |t_f| (|t_f| - |t_r|) / (|t_f| + |t_r|)."""
    total = t_f + t_r
    return 0.0 if total == 0.0 else t_f * (t_f - t_r) / total


def _every(values, step=8):
    return values[::step] if len(values) > 50 else values


class Checker:
    """Checks each job's outputs and collects the values compared with the
    reference. ``check`` returns a list of problems, empty when the job is
    right; jobs are checked in workload order, since a later job's check may
    use an earlier job's output."""

    def __init__(self, workdir: str, jobs: list[Job]):
        self.workdir = workdir
        self.jobs = jobs
        self.summaries: dict[str, dict] = {}
        self.rows_failed: dict[str, int] = {}

    def _job_of(self, mode: str) -> Job:
        return next(j for j in self.jobs if j.mode == mode)

    def check(self, job: Job) -> list[str]:
        d = out_dir(self.workdir, job)
        problems: list[str] = []
        manifest = _read_json(os.path.join(d, "run_manifest.json"))
        if manifest.get("mode") != job.mode:
            problems.append(f"manifest mode {manifest.get('mode')!r}")
        summary = getattr(self, "_" + job.mode.replace("-", "_"))(
            job, d, manifest, problems)
        self.summaries[job.name] = summary
        return problems

    def _steady_state(self, job, d, manifest, problems):
        op = _read_json(os.path.join(d, "steady_state.json"))["operating_point"]
        t_f, t_r = complex(*op["t_forward"]), complex(*op["t_reverse"])
        for name, t in (("t_forward", t_f), ("t_reverse", t_r)):
            if not abs(t) <= 1.0 + INVARIANT_TOL:
                problems.append(f"|{name}| = {abs(t)!r} > 1")
            if abs(abs(t) - op[name + "_abs"]) > 1e-12:
                problems.append(f"{name}_abs disagrees with {name}")
        if abs(op["efficiency"] - efficiency(abs(t_f), abs(t_r))) > 1e-12:
            problems.append("efficiency disagrees with |t_f|, |t_r|")
        for key in ("dark_population_forward", "dark_population_reverse"):
            if not -INVARIANT_TOL <= op[key] <= 1.0 + INVARIANT_TOL:
                problems.append(f"{key} = {op[key]!r} outside [0, 1]")
        return {"t_forward": [t_f.real, t_f.imag],
                "t_reverse": [t_r.real, t_r.imag],
                "efficiency": op["efficiency"],
                "dark_population_forward": op["dark_population_forward"],
                "dark_population_reverse": op["dark_population_reverse"]}

    def _sweep_power(self, job, d, manifest, problems):
        tab = _read_table(os.path.join(d, "power_sweep.csv"))
        cfg = job.config
        n = len(tab["p_over_gammabar"])
        if n != cfg["n_powers"]:
            problems.append(f"{n} rows, expected {cfg['n_powers']}")
        ratio = (cfg["power_max_over_gammabar"]
                 / cfg["power_min_over_gammabar"]) ** (1.0 / (n - 1))
        failed = 0
        for k in range(n):
            p = tab["p_over_gammabar"][k]
            if abs(p - cfg["power_min_over_gammabar"] * ratio ** k) > 1e-9 * p:
                problems.append(f"row {k}: power {p!r} off the geometric grid")
            row = [tab[c][k] for c in tab if c != "p_over_gammabar"]
            if any(math.isnan(v) for v in row):
                failed += 1
                if not all(math.isnan(v) for v in row):
                    problems.append(f"row {k}: partly NaN")
                continue
            t_f, t_r = tab["t_fwd_abs"][k], tab["t_rev_abs"][k]
            if not (t_f <= 1.0 + INVARIANT_TOL and t_r <= 1.0 + INVARIANT_TOL):
                problems.append(f"row {k}: |t| > 1")
            if abs(tab["efficiency"][k] - efficiency(t_f, t_r)) > 1e-12:
                problems.append(f"row {k}: efficiency disagrees with |t|")
            for c in ("dark_pop_fwd", "dark_pop_rev"):
                if not -INVARIANT_TOL <= tab[c][k] <= 1.0 + INVARIANT_TOL:
                    problems.append(f"row {k}: {c} outside [0, 1]")
        notes = manifest.get("notes", [])
        if len(notes) != failed:
            problems.append(f"{failed} NaN rows but {len(notes)} manifest notes")
        if job.failed_rows and failed == 0:
            problems.append("expected rows without a unique steady state")
        if not job.failed_rows and failed:
            problems.append(f"{failed} rows failed to solve")
        self.rows_failed[job.name] = failed
        if job.failed_rows:
            # Which ill-conditioned rows solve, and to what digits, is up to
            # the solver; only the invariants above are held fixed.
            return {}
        return {c: _every(v) for c, v in tab.items()}

    def _sweep_frequency(self, job, d, manifest, problems):
        tab = _read_table(os.path.join(d, "frequency_sweep.csv"))
        cfg = job.config
        gr, gphi, p = (cfg["gamma_r_hz"], cfg["gamma_phi_hz"],
                       cfg["power_over_gamma_r"])
        g1 = gr
        g2 = 0.5 * g1 + gphi
        n = len(tab["delta_omega_hz"])
        if n != cfg["n_points"]:
            problems.append(f"{n} points, expected {cfg['n_points']}")
        for k in range(n):
            t = complex(tab["t_real"][k], tab["t_imag"][k])
            # Closed-form single-emitter transmission (rates in Hz; only
            # ratios enter), against the master-equation result.
            x = tab["delta_omega_hz"][k] / g2
            sat = 2.0 * p * gr * gr / (g1 * g2)
            t_exact = 1.0 - (gr / (2.0 * g2)) * (1.0 - 1j * x) / (1.0 + x * x + sat)
            if not abs(t) <= 1.0 + INVARIANT_TOL:
                problems.append(f"point {k}: |t| > 1")
            if abs(t - t_exact) > 1e-7:
                problems.append(f"point {k}: t off the analytic value by "
                                f"{abs(t - t_exact):.3e}")
        return {"t_real": _every(tab["t_real"]),
                "t_imag": _every(tab["t_imag"])}

    def _fit(self, job, d, manifest, problems):
        res = _read_json(os.path.join(d, "fit_result.json"))
        gr_true = self._job_of("sweep-frequency").config["gamma_r_hz"]
        if not res["converged"]:
            problems.append("fit did not converge")
        if not abs(res["gamma_r_hz"] - gr_true) <= FIT_RTOL * gr_true:
            problems.append(f"fitted gamma_r {res['gamma_r_hz']!r} Hz, "
                            f"generated {gr_true!r} Hz")
        return {"gamma_r_hz": res["gamma_r_hz"],
                "s_over_gamma_r": res["s_hz"] / res["gamma_r_hz"],
                "center_over_gamma_r": res["center_offset_hz"] / res["gamma_r_hz"]}

    def _mirror_mc(self, job, d, manifest, problems):
        tab = _read_table(os.path.join(d, "mirror_sweep.csv"))
        cfg = job.config
        steady = self.summaries[self._job_of("steady-state").name]
        sw2 = cfg["sigma_w"] ** 2
        n = cfg["n_samples"]
        for k, power in enumerate(tab["power"]):
            for side, key in (("fwd", "dark_population_forward"),
                              ("rev", "dark_population_reverse")):
                p = min(max(steady[key], 0.0), 1.0)
                q = p * (1.0 - p)
                var = power * q + sw2
                if abs(tab[f"var_i_{side}_analytic"][k] - var) > 1e-9 * var:
                    problems.append(f"row {k}: analytic var_i_{side} disagrees "
                                    "with the steady-state dark population")
                # Fourth central moment of sqrt(power) (X - p) + w, with X
                # Bernoulli(p) and w Gaussian noise of variance sigma_w^2.
                mu4 = (power * power * q * (1.0 - 3.0 * q)
                       + 6.0 * power * q * sw2 + 3.0 * sw2 * sw2)
                sigma = math.sqrt(max(mu4 - var * var, 0.0) / n)
                if abs(tab[f"var_i_{side}"][k] - var) > MIRROR_SIGMAS * sigma:
                    problems.append(f"row {k}: var_i_{side} is more than "
                                    f"{MIRROR_SIGMAS} sigma off {var!r}")
                sigma_q = math.sqrt(2.0 / n) * sw2
                if abs(tab[f"var_q_{side}"][k] - sw2) > MIRROR_SIGMAS * sigma_q:
                    problems.append(f"row {k}: var_q_{side} is more than "
                                    f"{MIRROR_SIGMAS} sigma off sigma_w^2")
        return {c: v for c, v in tab.items() if c != "power"}

    def _spectrum(self, job, d, manifest, problems):
        tab = _read_table(os.path.join(d, "spectrum.csv"))
        side = _read_json(os.path.join(d, "spectrum.json"))
        psd, w = tab["psd"], tab["freq_offset_hz"]
        peak = max(psd)
        if len(psd) != job.config["n_freq"]:
            problems.append(f"{len(psd)} frequencies, expected "
                            f"{job.config['n_freq']}")
        if not (math.isfinite(peak) and peak > 0.0):
            problems.append(f"PSD peak {peak!r}")
        if any(not math.isfinite(v) or v < -INVARIANT_TOL * peak for v in psd):
            problems.append("PSD has negative or non-finite values")
        fit = side.get("lorentzian_fit")
        if fit is None:
            problems.append("no Lorentzian fit")
            fit = {"fwhm_hz": math.nan, "center_hz": math.nan}
        elif not (0.0 < fit["fwhm_hz"] < w[-1] - w[0]
                  and w[0] < fit["center_hz"] < w[-1]):
            problems.append(f"Lorentzian fit off the grid: {fit}")
        return {"elastic_weight_photons_per_s":
                    side["elastic_weight_photons_per_s"],
                "fwhm_hz": fit["fwhm_hz"],
                "center_over_fwhm": fit["center_hz"] / fit["fwhm_hz"],
                "psd": _every(psd, 10)}


# Reference tolerances by mode and summary key: ("abs", x) bounds the absolute
# difference by x, ("rel", x) by x |reference|, ("peak", x) by x max|reference|.
TOLERANCES = {
    "steady-state": {"*": ("abs", 1e-8)},
    "sweep-power": {"*": ("abs", 1e-8)},
    "sweep-frequency": {"*": ("abs", 1e-8)},
    "fit": {"gamma_r_hz": ("rel", 1e-6), "*": ("abs", 1e-5)},
    "mirror-mc": {"*": ("rel", 1e-9)},
    "spectrum": {"elastic_weight_photons_per_s": ("rel", 1e-8),
                 "fwhm_hz": ("rel", 1e-3), "center_over_fwhm": ("abs", 1e-3),
                 "psd": ("peak", 1e-5)},
}


def compare(job: Job, summary: dict, reference: dict) -> list[str]:
    """Differences between a job's summary values and its reference values."""
    problems = []
    tols = TOLERANCES[job.mode]
    if set(summary) != set(reference):
        return [f"summary keys {sorted(summary)} != reference keys "
                f"{sorted(reference)}"]
    for key, ref in reference.items():
        kind, x = tols[key] if key in tols else tols["*"]
        got = summary[key]
        refs = ref if isinstance(ref, list) else [ref]
        gots = got if isinstance(got, list) else [got]
        if len(refs) != len(gots):
            problems.append(f"{key}: {len(gots)} values, reference has {len(refs)}")
            continue
        scale = max(abs(v) for v in refs) if kind == "peak" else None
        for r, g in zip(refs, gots):
            if math.isnan(r) and math.isnan(g):
                continue
            tol = x if kind == "abs" else x * (scale if kind == "peak" else abs(r))
            if not abs(g - r) <= tol:
                problems.append(f"{key}: {g!r} differs from reference {r!r} "
                                f"by more than {tol:.3g}")
                break
    return problems
