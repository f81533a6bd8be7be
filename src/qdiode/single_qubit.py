"""Emitters on one waveguide: the cascaded-chain model and its one-emitter case.

Two-level emitters couple to the left- and right-moving modes of one
waveguide, each with radiative rate gamma_r split evenly between the
directions, non-radiative decay gamma_nr and pure dephasing gamma_phi. The
frame rotates at the drive frequency, so an emitter's frequency enters only
as its detuning from the drive, ``QubitParams.omega_q``. The drives alpha
(from the left) and beta (from the right), whose squares are photon fluxes
in photons/s, are arguments of each model.

``emitter_chain`` builds the master equation of emitters cascaded along the
waveguide (Gardiner, PRL 70, 2269 (1993); Lalumiere et al., PRA 88, 043806
(2013)): one emitter here, two in ``diode.diode_model``, whose sweeps
assemble the chain from ``_chain_terms``. For one emitter, <a_out>/alpha
has the closed form ``transmission_analytic``, which sweep-frequency
writes. One emitter is mirror-symmetric, so reciprocal at every power:
nonreciprocity needs two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .operators import SIGMA_MINUS, SIGMA_Z, kron, liouvillian_matrix


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


def transmission_analytic(q: QubitParams, delta_omega, alpha: complex):
    """Steady-state transmission <a_out>/alpha of one emitter driven from
    the left at amplitude alpha, in closed form (Astafiev et al., Science
    327, 840 (2010)): with x = delta_omega/gamma_2 and the saturation
    s = 2|alpha|^2 gamma_r/(gamma_1 gamma_2),

        t = 1 - (gamma_r / 2 gamma_2) (1 - i x) / (1 + x^2 + s).

    ``delta_omega``, the emitter's detuning from the drive, may be a scalar
    or an array (evaluated elementwise); ``q.omega_q`` is not used. One
    emitter is reciprocal, so a drive from the right gives the same
    <b_out>/beta. Every finite detuning evaluates without overflow, and
    t -> 1 far from resonance. Raises ValueError for a non-finite amplitude
    or detuning.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"drive amplitude alpha must be finite, got {alpha}")
    delta = np.asarray(delta_omega, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ValueError("detuning grid must be finite")
    r, g2 = abs(alpha), q.gamma_2
    # r gamma_r/gamma_1 <= r and r/gamma_2 are finite, so s overflows only
    # where its value is beyond the float range, and there t = 1.
    sat = 2.0 * (r * (q.gamma_r / q.gamma_1)) * (r / g2)
    # The fraction times a^2/a^2, a = gamma_2/m and m = max(gamma_2, |delta|),
    # so that a and a x are at most 1 in magnitude.
    m = np.maximum(g2, np.abs(delta))
    a, ax = g2 / m, delta / m
    t = 1.0 - (0.5 * q.gamma_r / g2) * a * (a - 1j * ax) / (
        a * a + ax * ax + sat * a * a)
    return complex(t) if np.isscalar(delta_omega) else t
