"""Command-line entry point.

    qdiode <mode> --config <file.json> [--out <dir>] [--seed <n>]

Modes: steady-state, sweep-power, sweep-frequency, spectrum, fit, mirror-mc.
Each run writes its data files plus run_manifest.json into the output
directory. Exit codes: 0 success, 2 configuration error, 3 solver error,
4 fit error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import io
from .config import MODES, ConfigError, RunConfig, load
from .diode import (DiodeConfig, build_diode_liouvillian,
                    dark_state_population, diode_output_ops, operating_point,
                    optimal_tuning, power_sweep)
from .fitting import FitError, fit_single_qubit
from .mirror import variance_vs_power
from .operators import SolverError, expectation, steady_state
from .single_qubit import QubitParams, transmission_vs_detuning
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


def _sweep_sides(p: dict) -> tuple[str, ...]:
    if p.get("alpha", 0.0) != 0.0:
        return ("forward",)
    if p.get("beta", 0.0) != 0.0:
        return ("reverse",)
    return ("forward", "reverse")


# -----------------------------------------------------------------------------
#                               Modes
# -----------------------------------------------------------------------------

def _run_steady_state(cfg: RunConfig, out_dir: str):
    p = cfg.params
    c = _diode_config(p)
    gamma_bar = c.gamma_bar
    payload: dict = {"gamma_bar_hz": gamma_bar / TWO_PI}

    alpha = p.get("alpha", 0.0) * math.sqrt(gamma_bar)
    beta = p.get("beta", 0.0) * math.sqrt(gamma_bar)
    if alpha != 0.0 or beta != 0.0:
        rho = steady_state(build_diode_liouvillian(c, alpha, beta))
        a_out, b_out = diode_output_ops(c, alpha, beta)
        payload["general"] = {
            "alpha_over_sqrt_gammabar": p.get("alpha", 0.0),
            "beta_over_sqrt_gammabar": p.get("beta", 0.0),
            "dark_population": dark_state_population(rho),
            "flux_a_over_gammabar": float(
                expectation(a_out.conj().T @ a_out, rho).real) / gamma_bar,
            "flux_b_over_gammabar": float(
                expectation(b_out.conj().T @ b_out, rho).real) / gamma_bar,
            "populations": [float(rho[i, i].real) for i in range(4)],
        }
    else:
        power = p.get("p_over_gammabar", 0.0) * gamma_bar
        op = operating_point(c, power)
        payload["operating_point"] = {
            "p_over_gammabar": p.get("p_over_gammabar", 0.0),
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
    return [path], [], EXIT_OK, {}


def _run_sweep_power(cfg: RunConfig, out_dir: str):
    p = cfg.params
    c = _diode_config(p)
    gamma_bar = c.gamma_bar
    powers = np.geomspace(p["power_min_over_gammabar"],
                          p["power_max_over_gammabar"],
                          p["n_powers"]) * gamma_bar
    info: dict = {}
    rows = power_sweep(c, powers, _sweep_sides(p), info)
    path = os.path.join(out_dir, "power_sweep.csv")
    io.write_sweep_csv(path, rows, gamma_bar)
    notes = [f"p/gammabar = {r.power / gamma_bar:.6g}: {r.error}"
             for r in rows if r.error]
    return [path], notes, EXIT_OK, {"min_null_gap": info["min_null_gap"]}


def _run_sweep_frequency(cfg: RunConfig, out_dir: str):
    p = cfg.params
    q = QubitParams(omega_q=0.0, gamma_r=p["gamma_r_hz"],
                    gamma_nr=p.get("gamma_nr_hz", 0.0),
                    gamma_phi=p.get("gamma_phi_hz", 0.0))
    amp = math.sqrt(p["power_over_gamma_r"] * q.gamma_r)
    half_span = p["span_linewidths"] * q.gamma_2
    grid = np.linspace(-half_span, half_span, p["n_points"])
    alpha, beta = (0.0, amp) if p.get("beta", 0.0) != 0.0 else (amp, 0.0)
    # The file axis is the qubit's detuning from the drive.
    t_vals = transmission_vs_detuning(q, grid, alpha, beta)
    path = os.path.join(out_dir, "frequency_sweep.csv")
    io.write_transmission_csv(path, grid, t_vals)
    return [path], [], EXIT_OK, {}


def _run_spectrum(cfg: RunConfig, out_dir: str):
    p = cfg.params
    c = _diode_config(p)
    gamma_bar = c.gamma_bar
    direction = p["direction"]
    predicted = predicted_linewidth(c.delta, gamma_bar,
                                    c.q1.gamma_nr, c.q1.gamma_phi)
    width_scale = 2.0 * linewidth_estimate(c)
    half_span = 0.5 * p["span_linewidths"] * width_scale
    grid = np.linspace(-half_span, half_span, p["n_freq"])

    result = psd(c, direction, p["port"], p["p_over_gammabar"] * gamma_bar,
                 grid)
    notes = []
    code = EXIT_OK
    if p["fit"]:
        try:
            result = result.with_fit(fit_lorentzian(result))
        except SpectrumError as exc:
            notes.append(f"lorentzian fit failed: {exc}")
            code = EXIT_FIT

    path = os.path.join(out_dir, "spectrum.csv")
    sidecar = io.write_spectrum_csv(path, result, sidecar_extra={
        "direction": direction,
        "port": p["port"],
        "predicted_fwhm_hz": (predicted + p.get("gamma_exc_hz", 0.0)) / TWO_PI,
        "p_over_gammabar": p["p_over_gammabar"],
    })
    return [path, sidecar], notes, code, {}


def _run_fit(cfg: RunConfig, out_dir: str):
    p = cfg.params
    delta_omega, t = io.read_transmission_csv(p["input_csv"])
    alpha = math.sqrt(p.get("power_over_gamma_r", 0.0) * p["initial_gamma_r_hz"])
    s0 = p.get("initial_s_hz")
    initial = QubitParams(omega_q=0.0, gamma_r=p["initial_gamma_r_hz"],
                          gamma_nr=0.0,
                          gamma_phi=0.5 * s0 if s0 is not None else 0.0)
    fitted, report = fit_single_qubit(list(zip(delta_omega, t)), alpha,
                                      initial,
                                      magnitude_only=p.get("magnitude_only"))
    payload = {
        "gamma_r_hz": report.gamma_r / TWO_PI,
        "s_hz": report.s / TWO_PI,
        "center_offset_hz": report.omega_q / TWO_PI,
        "stderr_gamma_r_hz": report.stderr_gamma_r / TWO_PI,
        "stderr_s_hz": report.stderr_s / TWO_PI,
        "stderr_center_offset_hz": report.stderr_omega_q / TWO_PI,
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
    if "p_dark_fwd" in p:
        p_fwd, p_rev = p["p_dark_fwd"], p["p_dark_rev"]
    else:
        c = _diode_config(p)
        op = operating_point(c, p["p_over_gammabar"] * c.gamma_bar)
        p_fwd = min(max(op.dark_population_forward, 0.0), 1.0)
        p_rev = min(max(op.dark_population_reverse, 0.0), 1.0)
        notes.append(f"p_dark from diode steady state: fwd = {p_fwd:.6g}, "
                     f"rev = {p_rev:.6g}")
    powers = np.linspace(p["power_min"], p["power_max"], p["n_powers"])
    rows = variance_vs_power(p_fwd, p_rev, powers, p["sigma_w"], cfg.seed,
                             p["n_samples"], p.get("dwell_samples", 0.0))
    path = os.path.join(out_dir, "mirror_sweep.csv")
    io.write_mirror_csv(path, rows, cfg.seed)
    return [path], notes, EXIT_OK, {}


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

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiode",
        description="Waveguide quantum diode simulation and analysis")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load(args.mode, args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg = RunConfig(mode=cfg.mode, echo=cfg.echo, params=cfg.params,
                            seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        outputs, notes, code, diagnostics = _RUNNERS[cfg.mode](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (SolverError, SpectrumError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    wall = time.perf_counter() - t0
    io.write_manifest(args.out, cfg.mode, cfg.echo, cfg.seed, wall,
                      outputs, notes, diagnostics)
    for path in outputs:
        print(path)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
