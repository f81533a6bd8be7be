"""Command-line entry point.

    qdiode <mode> --config FILE [--out DIR] [--seed N]

Modes: steady-state, sweep-power, sweep-frequency, spectrum, fit, mirror-mc.
Each run writes its data files plus run_manifest.json into the output
directory. Exit codes: 0 success, 2 configuration error, 3 solver error,
4 fit error.

``_parse_args`` reads that one grammar by hand: the options may come before
or after the mode, as ``--opt value`` or ``--opt=value``, and are never
abbreviated. A usage error prints the usage line and ``qdiode: error: ...``
to stderr and exits 2; ``-h``/``--help`` prints the help and exits 0. The
CLI imports neither argparse nor gettext, so a run loads no locale
machinery. Each runner converts units, calls one library function and hands
its results to ``io``; the solver diagnostics a library call sets in its
``info`` dict become the manifest's ``diagnostics``.

Importing this module ends with ``gc.freeze()``: every object alive at that
point (numpy's and qdiode's module state, about 21k objects) moves
to the collector's permanent generation, which no later collection walks.
A cold job exits 15-30 ms sooner for it, because interpreter shutdown
would otherwise walk those objects in two full collections, and the import
leaves next to no garbage to keep. The collector stays enabled. A caller
that imports this module to call ``run`` in its own process, such as a test
or a notebook, keeps this effect: objects alive at that import are never
cycle-collected, and objects made after it are collected as usual.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
import time

import numpy as np

from . import io
from .config import MODES, ConfigError, RunConfig, load
from .diode import (DiodeConfig, SolverError, driven_state, operating_point,
                    optimal_tuning, power_sweep)
from .fitting import FitError, fit_single_qubit
from .mirror import variance_vs_power
from .single_qubit import QubitParams, transmission_analytic
from .spectrum import (SpectrumError, fit_lorentzian, linewidth_estimate,
                       predicted_linewidth, psd)

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FIT = 4


def _diode_config(p: dict) -> DiodeConfig:
    """Two-qubit device from validated internal-unit parameters; detunings
    not given take their optimal-tuning values."""
    gamma_bar = math.sqrt(p["gamma_r1_hz"] * p["gamma_r2_hz"])
    det1, det2 = optimal_tuning(p["delta"], gamma_bar)
    q1 = QubitParams(omega_q=p.get("detuning1_hz", det1),
                     gamma_r=p["gamma_r1_hz"],
                     gamma_nr=p.get("gamma_nr_hz", 0.0),
                     gamma_phi=p.get("gamma_phi_hz", 0.0))
    q2 = QubitParams(omega_q=p.get("detuning2_hz", det2),
                     gamma_r=p["gamma_r2_hz"],
                     gamma_nr=p.get("gamma_nr_hz", 0.0),
                     gamma_phi=p.get("gamma_phi_hz", 0.0))
    return DiodeConfig(q1, q2, p["delta"])


# -----------------------------------------------------------------------------
#                               Modes
# -----------------------------------------------------------------------------

def _run_steady_state(cfg: RunConfig, out_dir: str):
    p = cfg.params
    c = _diode_config(p)
    gamma_bar = c.gamma_bar
    payload: dict = {"gamma_bar_hz": gamma_bar / TWO_PI}

    alpha = p["alpha"] * math.sqrt(gamma_bar)
    beta = p["beta"] * math.sqrt(gamma_bar)
    info: dict = {}
    if alpha != 0.0 or beta != 0.0:
        state = driven_state(c, alpha, beta, info)
        payload["general"] = {
            "alpha_over_sqrt_gammabar": p["alpha"],
            "beta_over_sqrt_gammabar": p["beta"],
            "dark_population": state.dark_population,
            "flux_a_over_gammabar": state.flux_a / gamma_bar,
            "flux_b_over_gammabar": state.flux_b / gamma_bar,
            "populations": list(state.populations),
        }
    else:
        power = p["p_over_gammabar"] * gamma_bar
        op = operating_point(c, power, info)
        payload["operating_point"] = {
            "p_over_gammabar": p["p_over_gammabar"],
            "t_forward": [op.t_forward.real, op.t_forward.imag],
            "t_reverse": [op.t_reverse.real, op.t_reverse.imag],
            "t_forward_abs": abs(op.t_forward),
            "t_reverse_abs": abs(op.t_reverse),
            "efficiency": op.efficiency,
            "dark_population_forward": op.dark_population_forward,
            "dark_population_reverse": op.dark_population_reverse,
        }
    path = os.path.join(out_dir, "steady_state.json")
    io.write_json(path, payload)
    return [path], [], EXIT_OK, info


def _run_sweep_power(cfg: RunConfig, out_dir: str):
    p = cfg.params
    c = _diode_config(p)
    gamma_bar = c.gamma_bar
    # Checked before the grid is scaled, which would warn as it overflows.
    power_max = p["power_max_over_gammabar"] * gamma_bar
    if not math.isfinite(power_max):
        raise ValueError("drive power must be finite and >= 0, "
                         f"got {power_max}")
    powers = np.geomspace(p["power_min_over_gammabar"],
                          p["power_max_over_gammabar"],
                          p["n_powers"]) * gamma_bar
    info: dict = {}
    rows = power_sweep(c, powers, info=info)
    path = os.path.join(out_dir, "power_sweep.csv")
    io.write_sweep_csv(path, rows, gamma_bar)
    notes = [f"p/gammabar = {r.power / gamma_bar:.6g}: {r.error}"
             for r in rows if r.error]
    return [path], notes, EXIT_OK, info


def _run_sweep_frequency(cfg: RunConfig, out_dir: str):
    p = cfg.params
    q = QubitParams(omega_q=0.0, gamma_r=p["gamma_r_hz"],
                    gamma_nr=p["gamma_nr_hz"], gamma_phi=p["gamma_phi_hz"])
    amp = math.sqrt(p["power_over_gamma_r"] * q.gamma_r)
    half_span = p["span_linewidths"] * q.gamma_2
    # np.linspace warns where the span 2 * half_span overflows.
    if not math.isfinite(2.0 * half_span):
        raise ValueError("detuning grid must be finite")
    grid = np.linspace(-half_span, half_span, p["n_points"])
    # The file axis is the qubit's detuning from the drive.
    path = os.path.join(out_dir, "frequency_sweep.csv")
    io.write_transmission_csv(path, grid, transmission_analytic(q, grid, amp))
    return [path], [], EXIT_OK, {}


def _run_spectrum(cfg: RunConfig, out_dir: str):
    p = cfg.params
    c = _diode_config(p)
    gamma_bar = c.gamma_bar
    direction = p["direction"]
    predicted = predicted_linewidth(c.delta, gamma_bar, c.q1.gamma_nr,
                                    c.q1.gamma_phi)
    width_scale = 2.0 * linewidth_estimate(c)
    half_span = 0.5 * p["span_linewidths"] * width_scale
    grid = np.linspace(-half_span, half_span, p["n_freq"])

    info: dict = {}
    result = psd(c, direction, p["port"], p["p_over_gammabar"] * gamma_bar,
                 grid, info)
    notes = []
    code = EXIT_OK
    if p["fit"]:
        try:
            result = result._replace(fitted=fit_lorentzian(result))
        except SpectrumError as exc:
            notes.append(f"lorentzian fit failed: {exc}")
            code = EXIT_FIT

    path = os.path.join(out_dir, "spectrum.csv")
    sidecar = io.write_spectrum_csv(path, result, sidecar_extra={
        "direction": direction,
        "port": p["port"],
        "predicted_fwhm_hz": predicted / TWO_PI,
        "p_over_gammabar": p["p_over_gammabar"],
    })
    return [path, sidecar], notes, code, info


def _finite_or_null(x: float) -> float | None:
    """x, or None (JSON null) where it is not finite: strict JSON has no
    Infinity or NaN, which a singular fit covariance gives a standard
    error."""
    return x if math.isfinite(x) else None


def _run_fit(cfg: RunConfig, out_dir: str):
    p = cfg.params
    delta_omega, t = io.read_transmission_csv(p["input_csv"])
    alpha = math.sqrt(p["power_over_gamma_r"] * p["initial_gamma_r_hz"])
    initial = QubitParams(omega_q=0.0, gamma_r=p["initial_gamma_r_hz"],
                          gamma_phi=0.5 * p["initial_s_hz"])
    fitted, report = fit_single_qubit(delta_omega, t, alpha, initial,
                                      magnitude_only=p["magnitude_only"])
    payload = {
        "gamma_r_hz": report.gamma_r / TWO_PI,
        "s_hz": report.s / TWO_PI,
        "center_offset_hz": report.omega_q / TWO_PI,
        "stderr_gamma_r_hz": _finite_or_null(report.stderr_gamma_r / TWO_PI),
        "stderr_s_hz": _finite_or_null(report.stderr_s / TWO_PI),
        "stderr_center_offset_hz": _finite_or_null(
            report.stderr_omega_q / TWO_PI),
        "residual_norm": report.residual_norm,
        "n_iterations": report.n_iterations,
        "converged": report.converged,
        "magnitude_only": report.magnitude_only,
        "gamma_2_hz": fitted.gamma_2 / TWO_PI,
    }
    path = os.path.join(out_dir, "fit_result.json")
    io.write_json(path, payload)
    return [path], [], EXIT_OK, {}


def _run_mirror_mc(cfg: RunConfig, out_dir: str):
    p = cfg.params
    notes = []
    info: dict = {}
    if "p_dark_fwd" in p:
        p_fwd, p_rev = p["p_dark_fwd"], p["p_dark_rev"]
    else:
        c = _diode_config(p)
        op = operating_point(c, p["p_over_gammabar"] * c.gamma_bar, info)
        p_fwd, p_rev = op.dark_probabilities
        notes.append(f"p_dark from diode steady state: fwd = {p_fwd:.6g}, "
                     f"rev = {p_rev:.6g}")
    powers = np.linspace(p["power_min"], p["power_max"], p["n_powers"])
    rows = variance_vs_power(p_fwd, p_rev, powers, p["sigma_w"], cfg.seed,
                             p["n_samples"])
    path = os.path.join(out_dir, "mirror_sweep.csv")
    io.write_mirror_csv(path, rows, cfg.seed)
    return [path], notes, EXIT_OK, info


_RUNNERS = {
    "steady-state": _run_steady_state,
    "sweep-power": _run_sweep_power,
    "sweep-frequency": _run_sweep_frequency,
    "spectrum": _run_spectrum,
    "fit": _run_fit,
    "mirror-mc": _run_mirror_mc,
}


# -----------------------------------------------------------------------------
#                             Entry point
# -----------------------------------------------------------------------------

_USAGE = "usage: qdiode <mode> --config FILE [--out DIR] [--seed N]"
_HELP = f"""{_USAGE}

Waveguide quantum diode simulation and analysis.

modes:
  {", ".join(MODES)}

options:
  -h, --help     show this help message and exit
  --config FILE  JSON config file (required)
  --out DIR      output directory (default: .)
  --seed N       override the config seed

exit codes: 0 success, 2 configuration error, 3 solver error, 4 fit error"""
_OPTIONS = ("--config", "--out", "--seed")
# The values argparse would take for an option beginning with "-".
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message: str):
    print(f"{_USAGE}\nqdiode: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _parse_args(argv) -> tuple[str, str, str, int | None]:
    """(mode, config, out, seed) from ``qdiode <mode> --config FILE [--out
    DIR] [--seed N]``: options before or after the mode, each as ``--opt
    value`` or ``--opt=value``, the last of a repeated option winning.

    ``-h`` or ``--help`` anywhere prints the help text and exits 0. A usage
    error (a missing mode or --config, an unknown mode, option or
    abbreviation, a second positional, an option without its value, a seed
    that is not an integer) prints the usage line and the error to stderr
    and exits 2, as argparse did.
    """
    if "-h" in argv or "--help" in argv:
        print(_HELP)
        raise SystemExit(EXIT_OK)
    opts = {"--out": "."}
    mode, stray = None, []
    tokens = iter(argv)
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if name in _OPTIONS:
            if not eq:
                value = next(tokens, None)
                if value is None or (value.startswith("-")
                                     and not _NEGATIVE_NUMBER.match(value)):
                    _usage_error(f"argument {name}: expected one argument")
            opts[name] = value
        elif tok.startswith("-") or mode is not None:
            stray.append(tok)
        else:
            mode = tok
    if stray:
        _usage_error(f"unrecognized arguments: {' '.join(stray)}")
    config = opts.get("--config")
    missing = [n for n, v in (("mode", mode), ("--config", config))
               if v is None]
    if missing:
        _usage_error("the following arguments are required: "
                     + ", ".join(missing))
    if mode not in MODES:
        _usage_error(f"argument mode: invalid choice: {mode!r} (choose from "
                     + ", ".join(map(repr, MODES)) + ")")
    seed = opts.get("--seed")
    if seed is not None:
        try:
            seed = int(seed)
        except ValueError:
            _usage_error(f"argument --seed: invalid int value: {seed!r}")
    return mode, config, opts["--out"], seed


def run(argv=None) -> int:
    mode, config_path, out_dir, seed = _parse_args(
        sys.argv[1:] if argv is None else list(argv))
    t0 = time.perf_counter()
    try:
        cfg = load(mode, config_path)
        if seed is not None:
            if seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg = cfg._replace(seed=seed)
        os.makedirs(out_dir, exist_ok=True)
        outputs, notes, code, diagnostics = _RUNNERS[cfg.mode](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    # numpy's LinAlgError is a ValueError, so it is caught first.
    except (SolverError, SpectrumError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # A count too large for memory fails its first allocation, before
        # any data file is opened.
        print(f"config error: the arrays this config asks for could not be "
              f"allocated: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    wall = time.perf_counter() - t0
    io.write_manifest(out_dir, cfg.mode, cfg.echo, cfg.seed, wall,
                      outputs, notes, diagnostics)
    for path in outputs:
        print(path)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


# Last: move the import-time objects out of the collector's reach, so that
# the full collections at interpreter exit skip them (see the docstring).
gc.freeze()
