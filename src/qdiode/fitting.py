"""Least-squares spectroscopy fitter for single-emitter transmission traces.

A trace is two arrays: the nominal qubit's detuning from the drive,
delta_omega, and t, complex or a real magnitude |t| (fitted in magnitude).
The fitter estimates a center correction dc so the returned qubit frequency
is initial.omega_q + dc. A single low-power magnitude trace cannot separate
gamma_nr from gamma_phi (they enter the lineshape through gamma_2 nearly
degenerately), so the fit parameters are

    gamma_r,   s = gamma_nr + 2 gamma_phi,   omega_q

with the fitted s reported directly. When a QubitParams is constructed from
the result it uses the convention gamma_nr = 0, gamma_phi = s/2, which leaves
gamma_1 equal to the fitted radiative rate.

Algorithm: a Levenberg-Marquardt engine in numpy, ``_least_squares``,
which also fits the spectrum module's Lorentzians. It takes one function
that returns the residuals r and their Jacobian J at a point. Each step
solves the damped normal equations (J^T J + mu I) h = -J^T r through one SVD
of J, so every trial damping after a rejected step costs no further
factorization. The damping is unscaled (mu I) and follows Nielsen's update
(H. B. Nielsen, IMM-REP-1999-05): after an accepted step with gain ratio rho
it shrinks by max(1/3, 1 - (2 rho - 1)^3), and each rejection multiplies it by
a factor that doubles. Marquardt's diag(J^T J) scaling is not used: on
magnitude-only traces, whose s sits in a flat valley, it drove ln s towards
-inf where a trust region converges (More, Lecture Notes in Mathematics 630,
1978). The engine stops when a step, or the relative decrease in cost it
brings, falls below 1e-12; it may evaluate the model at most 200 times,
and hitting that cap is a FitError. So is a stall, a converged fit that
leaves STALL_FRACTION or more of the flat model t = 1's residual norm.

The single-qubit fit runs in the coordinates (ln gamma_r, ln s,
dc / gamma_2_initial); ``_model`` gives the transmission of
``transmission_analytic`` and its Jacobian from one closed form. Log rates
keep the rates positive, and the center is measured in initial linewidths
so that all three coordinates are of order one. Standard errors come from
the Jacobian at the optimum by the delta method.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .single_qubit import QubitParams

MAX_EVALUATIONS = 200
# Stopping tolerance of _least_squares on the step and on the relative
# decrease in cost. At 1e-8 a noiseless trace can stop up to 1e-6 relative
# short of the optimum in s.
TOLERANCE = 1e-12
# Starting damping over the largest diagonal entry of J^T J. Nielsen's usual
# 1e-3 is cautious here: on the benchmark's fit traces it took 13-16 Jacobian
# evaluations, 1e-6 takes 9-11 and scipy's trust region took 6-8.
DAMPING_START = 1e-6
# A converged fit whose residual norm is at least this share of the flat model
# t = 1's is a stall. On a 70 MHz line it read 1e-15 (noiseless), 0.013 (1%
# noise), 0.199 (six points at one detuning) and 1.000 (started 10x too high).
STALL_FRACTION = 0.5


class FitError(RuntimeError):
    """Fit rejected (unidentifiable data) or failed to converge."""


class FitReport(NamedTuple):
    """Fit diagnostics: residual norm, standard errors, iteration record.

    ``n_iterations`` is the number of points whose Jacobian the optimizer
    used: one per accepted step plus the start.
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


class _Solution(NamedTuple):
    """Outcome of _least_squares; fun and jac are taken at x."""

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    nfev: int                      # evaluations of the model
    njev: int                      # accepted points, the start included
    success: bool
    message: str


def _least_squares(fun, x0) -> _Solution:
    """Minimize 0.5 |r(x)|^2 from x0 (module docstring's algorithm).

    ``fun(x)`` returns the residuals r and their Jacobian dr/dx. A trial
    point whose residuals or Jacobian are not finite counts as a rejected
    step.
    Reaching MAX_EVALUATIONS calls of fun returns success=False.
    """
    x = np.array(x0, dtype=float)
    r, jac = fun(x)
    nfev = njev = 1

    def done(success, message):
        return _Solution(x=x, fun=r, jac=jac, nfev=nfev, njev=njev,
                         success=success, message=message)

    if not np.all(np.isfinite(r)):
        return done(False, "residuals are not finite at the start")
    cost = 0.5 * float(r @ r)
    mu = DAMPING_START * float(np.max(np.sum(jac * jac, axis=0)))
    while True:
        u, sig, vt = np.linalg.svd(jac, full_matrices=False)
        z = u.T @ r
        nu = 2.0
        while True:
            if nfev >= MAX_EVALUATIONS:
                return done(False,
                            f"evaluation cap of {MAX_EVALUATIONS} reached")
            h = -vt.T @ (sig * z / (sig * sig + mu))
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                r_new, jac_new = fun(x + h)
            nfev += 1
            small_step = (np.linalg.norm(h)
                          <= TOLERANCE * (TOLERANCE + np.linalg.norm(x)))
            # Cost decrease the linear model predicts for h.
            damped = mu / (sig * sig + mu)
            predicted = 0.5 * float(np.sum(z * z * (1.0 - damped * damped)))
            gain = -1.0
            if (predicted > 0.0 and np.all(np.isfinite(r_new))
                    and np.all(np.isfinite(jac_new))):
                cost_new = 0.5 * float(r_new @ r_new)
                gain = (cost - cost_new) / predicted
            if gain > 0.0:
                break
            if small_step:
                return done(True, "step below tolerance")
            mu *= nu
            nu *= 2.0
        small_decrease = cost - cost_new <= TOLERANCE * cost and gain > 0.25
        x, r, jac, cost = x + h, r_new, jac_new, cost_new
        njev += 1
        if small_step or small_decrease:
            return done(True, "step or cost decrease below tolerance")
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)


def _model(x: np.ndarray, delta_omega: np.ndarray, alpha: complex,
           center_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Transmission t at x = (ln gr, ln s, dc / center_scale) and dt/dx,
    one column per coordinate of x.

    With gamma_nr = 0, gamma_2 = (gamma_r + s)/2 and the saturation term is
    2|alpha|^2 / gamma_2, so t = 1 - A F with A = gamma_r / (2 gamma_2),
    F = (1 - i d) / D, d = (delta_omega + dc) / gamma_2 and
    D = 1 + d^2 + 2|alpha|^2 / gamma_2.
    """
    gamma_r, s = np.exp(x[0]), np.exp(x[1])
    g2 = 0.5 * (gamma_r + s)
    k = 2.0 * abs(alpha) ** 2 / g2
    d = (delta_omega + x[2] * center_scale) / g2
    denom = 1.0 + d * d + k
    a = gamma_r / (2.0 * g2)
    f = (1.0 - 1j * d) / denom
    # Partial derivatives with respect to gamma_2 (gamma_r and dc held) and
    # to the shifted detuning delta_omega + dc.
    dt_dg2 = (a / g2) * (f - (1j * d + f * (2.0 * d * d + k)) / denom)
    dt_dd = a * (1j + 2.0 * d * f) / (g2 * denom)
    jac = np.column_stack([-gamma_r * f / (2.0 * g2) + 0.5 * gamma_r * dt_dg2,
                           0.5 * s * dt_dg2,
                           center_scale * dt_dd])
    return 1.0 - a * f, jac


def _residuals(x, delta_omega, target, alpha, center_scale, magnitude_only):
    """Residuals of the model against target at x, and their Jacobian."""
    t, jac = _model(x, delta_omega, alpha, center_scale)
    if magnitude_only:
        t_abs = np.abs(t)
        return t_abs - target, (t.conj()[:, None] * jac).real / t_abs[:, None]
    diff = t - target
    return (np.concatenate([diff.real, diff.imag]),
            np.concatenate([jac.real, jac.imag]))


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d array; np.median itself imports numpy.ma."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _noise_floor(values: np.ndarray) -> float:
    """Robust noise estimate from successive differences of an ordered trace."""
    diffs = np.diff(values)
    if diffs.size == 0:
        return 0.0
    return 1.4826 * _median(np.abs(diffs)) / np.sqrt(2.0)


def fit_single_qubit(delta_omega, t, alpha: complex, initial: QubitParams,
                     magnitude_only: bool = False):
    """Fit (gamma_r, gamma_nr + 2 gamma_phi, omega_q) to a transmission trace.

    ``delta_omega`` and ``t`` are 1-d arrays of one length, as
    ``io.read_transmission_csv`` returns them. A real t is a magnitude |t|
    and is fitted in magnitude; a complex t is fitted in the complex plane,
    or in magnitude with ``magnitude_only``. Returns (QubitParams,
    FitReport). Raises ValueError for arrays of another shape or a non-finite
    alpha, and FitError for non-finite points, flat (unidentifiable) data, a
    stall, or when the optimizer reaches its evaluation cap.
    """
    delta_omega, t = np.asarray(delta_omega, dtype=float), np.asarray(t)
    if delta_omega.ndim != 1 or t.shape != delta_omega.shape:
        raise ValueError("delta_omega and t must be equal-length 1-d arrays, "
                         f"got shapes {delta_omega.shape} and {t.shape}")
    if not np.isfinite(alpha):
        raise ValueError(f"drive amplitude alpha must be finite, got {alpha}")
    if delta_omega.size < 6:
        raise FitError(f"need at least 6 data points, got {delta_omega.size}")
    magnitude_only = magnitude_only or not np.iscomplexobj(t)
    target = np.abs(t).astype(float) if magnitude_only else t.astype(complex)

    n_bad = int(np.count_nonzero(~(np.isfinite(delta_omega)
                                   & np.isfinite(target))))
    if n_bad:
        raise FitError(f"{n_bad} of {t.size} data points are not finite")

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
    args = (delta_omega, target, alpha, center_scale, magnitude_only)
    sol = _least_squares(lambda x: _residuals(x, *args), x0)
    if not sol.success:
        raise FitError(f"no convergence after {sol.nfev} evaluations "
                       f"(residual norm {np.linalg.norm(sol.fun):.3e})")
    stall = np.linalg.norm(sol.fun) / np.linalg.norm(target - 1.0)
    if stall >= STALL_FRACTION:
        raise FitError(f"fit stalled: it leaves {stall:.3f} of the residual "
                       "norm of the flat model t = 1")

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
