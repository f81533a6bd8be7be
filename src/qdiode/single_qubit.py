"""Emitters on one waveguide: the cascaded-chain model and its one-emitter case.

Two-level emitters couple to the left- and right-moving modes of one
waveguide, each with radiative rate gamma_r split evenly between the
directions, non-radiative decay gamma_nr and pure dephasing gamma_phi. The
frame rotates at the drive frequency, so an emitter's frequency enters only
as its detuning from the drive, ``QubitParams.omega_q``. The drives alpha
(from the left) and beta (from the right), whose squares are photon fluxes
in photons/s, are arguments of each solve.

``emitter_chain`` builds the master equation of emitters cascaded along the
waveguide (Gardiner, PRL 70, 2269 (1993); Lalumiere et al., PRA 88, 043806
(2013)): one emitter here, two in ``diode.diode_model``. For one emitter,
<a_out>/alpha has the closed form ``transmission_analytic``. One emitter is
mirror-symmetric, so reciprocal at every power: nonreciprocity needs two.

``_affine_sweep`` is the one sweep engine, and every steady state of every
mode is solved through it. A real factor on the drive and an emitter's
detuning each enter L and the output operators affinely (the drive enters
H, see ``emitter_chain``), so a sweep takes the model at 0 and 1 only
(``_sweep_ends``) and solves its whole grid in one ``pencil_states`` call: one
eigendecomposition for the sweep, with every point it cannot prove left to
the SVD rule of ``operators.steady_states``, which so decides every failure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .operators import (
    SIGMA_MINUS,
    SIGMA_Z,
    SolverError,
    kron,
    liouvillian_matrix,
    pencil_states,
    real_form,
)

# A solved point whose null gap s_{-2}/s_max is below this is near the
# solver's 1e-10 degeneracy threshold, and its state has few correct digits.
NEAR_DEGENERATE_GAP = 1e-8


@dataclass(frozen=True)
class QubitParams:
    """One emitter's detuning from the drive and its radiative,
    non-radiative and pure-dephasing rates, all finite and in rad/s."""

    omega_q: float
    gamma_r: float
    gamma_nr: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.gamma_r <= 0:
            raise ValueError("gamma_r must be positive")
        if self.gamma_nr < 0 or self.gamma_phi < 0:
            raise ValueError("decay rates must be nonnegative")

    @property
    def gamma_1(self) -> float:
        """Total decay rate gamma_r + gamma_nr."""
        return self.gamma_r + self.gamma_nr

    @property
    def gamma_2(self) -> float:
        """Total decoherence rate gamma_1/2 + gamma_phi."""
        return 0.5 * self.gamma_1 + self.gamma_phi


@functools.cache
def _chain_operators(n: int) -> tuple[tuple, tuple]:
    """sigma_- and sigma_z of each of n emitters on their 2^n-dimensional
    space, emitter 1 the left tensor factor; built once per n, read-only."""
    def embed(op, k):
        op = kron(kron(np.eye(2 ** k), op), np.eye(2 ** (n - 1 - k)))
        op.flags.writeable = False
        return op
    return tuple(tuple(embed(op, k) for k in range(n))
                 for op in (SIGMA_MINUS, SIGMA_Z))


def emitter_chain(emitters, phase: complex, alpha: complex = 0.0,
                  beta: complex = 0.0):
    """Liouvillian and output operators (L, a_out, b_out) of emitters
    cascaded along one waveguide, emitter 1 on the left.

    With L_k = sqrt(gamma_r,k/2) sigma_-^(k) and ``phase`` = e^{i phi}
    between neighbours, emitter k sees the right-moving field f_1 = alpha,
    f_k = phase (f_{k-1} + L_{k-1}), and the left-moving field g_k from beta
    in reverse order; a_out and b_out leave the chain to the right and left.
    Each output is c + A, a scalar drive part c and an emitter part A, and
    D[A + c] = D[A] + (1/2)[c* A - c A^dag, .] moves c into H, as the SLH
    series product does (Combes et al., Adv. Phys. X 2, 784 (2017)):

        H       = -sum_k (Delta_k/2) sigma_z^(k)
                  - i/2 sum_k [ L_k^dag (f_k + g_k) - h.c. ]
                  + i/2 sum_{c + A = a_out, b_out} [ c* A - c A^dag ]
        drho/dt = -i[H, rho] + sum_{c + A = a_out, b_out} D[A]
                  + sum_k [ gamma_nr,k D[sigma_-^(k)]
                            + (gamma_phi,k/2) D[sigma_z^(k)] ].

    So L is affine in the drive term by term, with no |alpha|^2 terms to
    cancel, and an undriven emitter's coherence decays at ``gamma_2``.
    """
    h, jumps, outputs = _chain_terms(emitters, phase, alpha, beta)
    return (liouvillian_matrix(h, jumps), *outputs)


def _chain_terms(emitters, phase, alpha, beta):
    """``emitter_chain``'s H, (rate, operator) jump list and (a_out, b_out);
    neither the drive nor a detuning enters the jumps."""
    n = len(emitters)
    ident = np.eye(2 ** n)
    sigma_minus, sigma_z = _chain_operators(n)
    jumps = [np.sqrt(q.gamma_r / 2.0) * sm
             for q, sm in zip(emitters, sigma_minus)]
    h = -0.5 * sum(q.omega_q * sz for q, sz in zip(emitters, sigma_z))
    outputs = []
    for amp, order in ((alpha, range(n)), (beta, reversed(range(n)))):
        # The field is c + A; no phase reaches the first emitter.
        c, field, shift = amp, np.zeros_like(ident, dtype=complex), 1.0
        for k in order:
            drive = shift * jumps[k].conj().T @ (c * ident + field)
            h = h - 0.5j * (drive - drive.conj().T)
            c, field, shift = c * shift, field * shift + jumps[k], phase
        h = h + 0.5j * (np.conj(c) * field - c * field.conj().T)
        outputs.append((c, field))
    return (h, [(1.0, field) for _, field in outputs]
            + [(q.gamma_nr, sm) for q, sm in zip(emitters, sigma_minus)]
            + [(0.5 * q.gamma_phi, sz) for q, sz in zip(emitters, sigma_z)],
            tuple(c * ident + field for c, field in outputs))


def _sweep_ends(start, ends):
    """The models (L, a_out, b_out) at 0 and at each end at 1 of sweeps of a
    drive or of detunings from 0, from ``_chain_terms``' arguments for each:
    the dissipators are assembled once, in L(0), and L(1) = L(0) - i[H(1) -
    H(0), .]. A drive term changes the excitation number and a detuning
    adds imaginary parts to diagonal entries, real in one emitter's L(0), so
    each lands on zeros of L(0), and L(1) is ``emitter_chain``'s bit for
    bit."""
    h0, jumps, outputs = _chain_terms(*start)
    lv0 = liouvillian_matrix(h0, jumps)
    return [(lv0, *outputs)] + [
        (lv0 + liouvillian_matrix(h - h0, []), *outs)
        for h, _, outs in (_chain_terms(*end) for end in ends)]


def _affine_sweep(ends, xs):
    """Steady states of a model at each real parameter value in ``xs``.

    ``ends`` holds the model at 0 and at 1, each ``emitter_chain``'s
    (L, a_out, b_out) for a model affine in x. L(0) and L(1) are converted
    to real Hermitian coordinates once, L(0) + x (L(1) - L(0)) is solved at
    every x in one ``pencil_states`` call, and the output fields are read out
    of all the states at once. Returns the ``SteadyStates`` and <a_out> and
    <b_out> at each x, NaN where a point failed. A point's ``null_gap`` is
    the SVD's where it failed or the SVD solved it, and a lower bound on
    that gap where the pencil solved it; its values do not depend on the
    other points of the sweep.
    """
    (lv0, a0, b0), (lv1, a1, b1) = ends
    lv0, lv1 = real_form(lv0), real_form(lv1)
    xs = np.asarray(xs, dtype=float)
    solved = pencil_states(lv0, lv1, xs)
    # <O> = tr(O rho) = sum_ij O_ij rho_ji, for O = O(0) + x (O(1) - O(0)).
    a_mean, b_mean = (np.einsum("ij,nji->n", o0, solved.rho)
                      + xs * np.einsum("ij,nji->n", o1 - o0, solved.rho)
                      for o0, o1 in ((a0, a1), (b0, b1)))
    return solved, a_mean, b_mean


def _gap_diagnostics(info: dict, gaps, residuals) -> None:
    """Set the smallest null gap, the largest residual (each None without
    points) and ``near_degenerate_rows``, the number of points with a side
    whose null gap is below NEAR_DEGENERATE_GAP, from (sides, points)
    arrays."""
    info["min_null_gap"] = float(gaps.min()) if gaps.size else None
    info["max_residual"] = float(residuals.max()) if residuals.size else None
    info["near_degenerate_rows"] = int(
        np.sum(np.any(gaps < NEAR_DEGENERATE_GAP, axis=0)))


def transmission_analytic(q: QubitParams, delta_omega, alpha: complex):
    """Steady-state transmission amplitude of a single driven emitter.

    t = 1 - (gamma_r / 2 gamma_2) (1 - i d/gamma_2)
            / (1 + (d/gamma_2)^2 + 2|alpha|^2 gamma_r/(gamma_1 gamma_2))

    ``delta_omega`` may be a scalar or an array (evaluated elementwise).
    """
    g1, g2 = q.gamma_1, q.gamma_2
    d = np.asarray(delta_omega, dtype=float) / g2
    sat = 2.0 * abs(alpha) ** 2 * q.gamma_r / (g1 * g2)
    t = 1.0 - (q.gamma_r / (2.0 * g2)) * (1.0 - 1j * d) / (1.0 + d * d + sat)
    return complex(t) if np.isscalar(delta_omega) else t


def transmission_vs_detuning(q: QubitParams, detunings, alpha: complex,
                             info: dict | None = None) -> np.ndarray:
    """Steady-state transmission <a_out>/alpha from the full master equation
    at each detuning from the drive in ``detunings`` (``q.omega_q`` is not
    used).

    The drive alpha comes from the left: one emitter is reciprocal, so a
    drive from the right gives the same <b_out>/beta, bit for bit. The whole
    grid is one ``_affine_sweep`` over the detuning. Raises ValueError for
    an undriven emitter, a non-finite amplitude or grid, and SolverError
    with the first failed point's message.

    If ``info`` is a dict, the solver diagnostics of the grid are set in it
    as ``power_sweep`` sets them: ``"min_null_gap"``, ``"max_residual"`` and
    ``"near_degenerate_rows"``.
    """
    if alpha == 0:
        raise ValueError("transmission requires a nonzero drive")
    if not np.isfinite(alpha):
        raise ValueError(f"drive amplitude alpha must be finite, got {alpha}")
    detunings = np.asarray(detunings, dtype=float)
    if not np.all(np.isfinite(detunings)):
        raise ValueError("detuning grid must be finite")
    start, end = (([replace(q, omega_q=det)], 1.0, alpha, 0.0)
                  for det in (0.0, 1.0))
    solved, a_mean, _ = _affine_sweep(_sweep_ends(start, [end]), detunings)
    error = next((e for e in solved.error if e is not None), None)
    if error is not None:
        raise SolverError(error)
    if info is not None:
        _gap_diagnostics(info, solved.null_gap[None], solved.residual[None])
    return a_mean / alpha
