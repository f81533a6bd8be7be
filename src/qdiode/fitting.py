"""Least-squares spectroscopy fitter for single-emitter transmission traces.

The data axis is the detuning delta_omega = omega_q_nominal - omega_d swept by
the drive; the fitter estimates a center correction dc so the returned qubit
frequency is initial.omega_q + dc. A single low-power magnitude trace cannot
separate gamma_nr from gamma_phi (they enter the lineshape through gamma_2
nearly degenerately), so the fit parameters are

    gamma_r,   s = gamma_nr + 2 gamma_phi,   omega_q

with the fitted s reported directly. When a QubitParams is constructed from
the result it uses the convention gamma_nr = 0, gamma_phi = s/2, which leaves
gamma_1 equal to the fitted radiative rate.

Algorithm: ``scipy.optimize.least_squares`` (trust-region reflective, with
its forward-difference Jacobian and tolerances of 1e-12) in the coordinates
(ln gamma_r, ln s, dc / gamma_2_initial). Log rates keep the rates positive;
the center is measured in initial linewidths because the finite-difference
step is relative to each coordinate, and at the zero start of dc it would be
about 1e-8 rad/s against a linewidth of about 2e8 rad/s. The optimizer may
evaluate the residuals at most 200 times (not counting the Jacobian's
evaluations); hitting that cap is a FitError. Standard errors come from the
Jacobian at the optimum by the delta method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .single_qubit import QubitParams, transmission_analytic

MAX_EVALUATIONS = 200
# ftol, xtol and gtol of least_squares. At their 1e-8 defaults a noiseless
# trace can stop up to 1e-6 relative short of the optimum in s.
TOLERANCE = 1e-12


class FitError(RuntimeError):
    """Fit rejected (unidentifiable data) or failed to converge."""


@dataclass(frozen=True)
class FitReport:
    """Fit diagnostics: residual norm, standard errors, iteration record.

    ``n_iterations`` is the number of Jacobian evaluations the optimizer
    made, one per accepted step plus the one at the start.
    """

    residual_norm: float
    gamma_r: float
    s: float                       # gamma_nr + 2 gamma_phi
    omega_q: float
    stderr_gamma_r: float
    stderr_s: float
    stderr_omega_q: float
    n_iterations: int
    converged: bool
    magnitude_only: bool


def _model(x: np.ndarray, delta_omega: np.ndarray, alpha: complex,
           omega_q0: float, center_scale: float) -> np.ndarray:
    """Transmission model at x = (ln gr, ln s, dc / center_scale)."""
    gamma_r = np.exp(x[0])
    s = np.exp(x[1])
    dc = x[2] * center_scale
    q = QubitParams(omega_q=omega_q0 + dc, gamma_r=gamma_r,
                    gamma_nr=0.0, gamma_phi=0.5 * s)
    return transmission_analytic(q, delta_omega + dc, alpha)


def _residuals(x, delta_omega, target, alpha, omega_q0, center_scale,
               magnitude_only):
    t = _model(x, delta_omega, alpha, omega_q0, center_scale)
    if magnitude_only:
        return np.abs(t) - target
    diff = t - target
    return np.concatenate([diff.real, diff.imag])


def _noise_floor(values: np.ndarray) -> float:
    """Robust noise estimate from successive differences of an ordered trace."""
    diffs = np.diff(values)
    if diffs.size == 0:
        return 0.0
    return 1.4826 * np.median(np.abs(diffs)) / np.sqrt(2.0)


def fit_single_qubit(data, alpha: complex, initial: QubitParams,
                     magnitude_only: bool | None = None):
    """Fit (gamma_r, gamma_nr + 2 gamma_phi, omega_q) to a transmission trace.

    ``data`` is a sequence of (delta_omega, t) pairs; t may be complex or a
    real magnitude |t|. Returns (QubitParams, FitReport). Raises FitError for
    non-finite points, unidentifiable (flat) data, or when the optimizer
    reaches its evaluation cap.
    """
    pairs = list(data)
    if len(pairs) < 6:
        raise FitError(f"need at least 6 data points, got {len(pairs)}")
    delta_omega = np.array([p[0] for p in pairs], dtype=float)
    t_raw = np.array([p[1] for p in pairs])
    if magnitude_only is None:
        magnitude_only = not np.iscomplexobj(t_raw)
    if magnitude_only:
        target = np.abs(t_raw).astype(float)
    else:
        target = t_raw.astype(complex)

    n_bad = int(np.count_nonzero(~(np.isfinite(delta_omega)
                                   & np.isfinite(target))))
    if n_bad:
        raise FitError(f"{n_bad} of {len(pairs)} data points are not finite")

    # Identifiability guard: a trace with no resonance feature above its own
    # noise floor pins none of the parameters.
    order = np.argsort(delta_omega)
    magnitudes = np.abs(target)[order]
    floor = _noise_floor(magnitudes)
    if np.ptp(magnitudes) <= max(3.0 * floor, 1e-12):
        raise FitError("data is flat within its noise floor; "
                       "no resonance to fit (unidentifiable)")

    s0 = initial.gamma_nr + 2.0 * initial.gamma_phi
    if s0 <= 0:
        s0 = 1e-4 * initial.gamma_r
    center_scale = initial.gamma_2
    x0 = np.array([np.log(initial.gamma_r), np.log(s0), 0.0])
    sol = least_squares(_residuals, x0, ftol=TOLERANCE, xtol=TOLERANCE,
                        gtol=TOLERANCE, max_nfev=MAX_EVALUATIONS,
                        args=(delta_omega, target, alpha, initial.omega_q,
                              center_scale, magnitude_only))
    if sol.status == 0:
        raise FitError(f"no convergence after {sol.nfev} evaluations "
                       f"(residual norm {np.linalg.norm(sol.fun):.3e})")

    gamma_r = float(np.exp(sol.x[0]))
    s = float(np.exp(sol.x[1]))
    omega_q = initial.omega_q + float(sol.x[2]) * center_scale

    # Standard errors: delta method on the covariance of x from the
    # Jacobian at the optimum.
    r, jac = sol.fun, sol.jac
    dof = max(r.size - x0.size, 1)
    sigma2 = float(r @ r) / dof
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
        errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
        stderr_gamma_r = gamma_r * errs[0]
        stderr_s = s * errs[1]
        stderr_omega_q = center_scale * errs[2]
    except np.linalg.LinAlgError:
        stderr_gamma_r = stderr_s = stderr_omega_q = np.inf

    params = QubitParams(omega_q=omega_q, gamma_r=gamma_r,
                         gamma_nr=0.0, gamma_phi=0.5 * s)
    report = FitReport(residual_norm=float(np.sqrt(r @ r)),
                       gamma_r=gamma_r, s=s, omega_q=omega_q,
                       stderr_gamma_r=stderr_gamma_r, stderr_s=stderr_s,
                       stderr_omega_q=stderr_omega_q,
                       n_iterations=int(sol.njev), converged=bool(sol.success),
                       magnitude_only=magnitude_only)
    return params, report
