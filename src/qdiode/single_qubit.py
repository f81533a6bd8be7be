"""Single-atom waveguide scattering model.

A two-level emitter couples to left- and right-moving waveguide modes with
radiative rate gamma_r (split evenly between directions), plus non-radiative
decay gamma_nr and pure dephasing gamma_phi. The model works in the frame
rotating at the drive frequency, so the emitter's frequency enters only as
its detuning from the drive, ``QubitParams.omega_q``. The coherent drives
alpha (from the left) and beta (from the right) are arguments of each solve;
they enter both the Hamiltonian and the displaced output-field dissipators:

    L       = sqrt(gamma_r/2) sigma_-
    a_out   = L + alpha,      b_out = L + beta
    H       = -(omega_q/2) sigma_z
              - i/2 [ (alpha+beta) sqrt(gamma_r/2) sigma_+  -  h.c. ]
    drho/dt = -i[H,rho] + D[a_out] + D[b_out]
              + gamma_nr D[sigma_-] + (gamma_phi/2) D[sigma_z]

|alpha|^2 and |beta|^2 are photon fluxes in photons/s. The steady-state
transmission <a_out>/alpha has the closed form implemented in
``transmission_analytic``.

The detuning enters only through H, so the Liouvillian is affine in it:
L(omega_q) = L(0) + omega_q DETUNING_SUPEROP, with DETUNING_SUPEROP the
superoperator of -i[-sigma_z/2, .]. ``transmission_vs_detuning`` assembles
L(0) once and solves every detuning of a grid in one stacked
``steady_states`` call; ``transmission_numeric`` is its one-point case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    SolverError,
    hamiltonian_superop,
    liouvillian_matrix,
    steady_states,
)

# d L / d omega_q: the detuning enters only through H = -(omega_q/2) sigma_z.
DETUNING_SUPEROP = hamiltonian_superop(-0.5 * SIGMA_Z)


@dataclass(frozen=True)
class QubitParams:
    """One emitter's detuning from the drive and its decay/dephasing rates,
    all in rad/s.

    The two models read ``gamma_phi`` differently. Here it enters as
    (gamma_phi/2) D[sigma_z], so an undriven emitter's coherence decays at
    ``gamma_2`` = gamma_1/2 + gamma_phi. The diode model uses
    gamma_phi D[sigma_z] for each qubit, whose coherence therefore decays at
    gamma_1/2 + 2 gamma_phi, not at ``gamma_2``. The same rate set thus
    means a different dephasing in each model.
    """

    omega_q: float
    gamma_r: float
    gamma_nr: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
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


def single_qubit_hamiltonian(q: QubitParams, alpha: complex = 0.0,
                             beta: complex = 0.0) -> np.ndarray:
    """Rotating-frame Hamiltonian including the coherent drive terms."""
    coupling = np.sqrt(q.gamma_r / 2.0)
    amp = alpha + beta
    h = -0.5 * q.omega_q * SIGMA_Z
    h = h - 0.5j * coupling * (amp * SIGMA_PLUS - np.conj(amp) * SIGMA_MINUS)
    return h


def single_qubit_output_ops(q: QubitParams, alpha: complex = 0.0,
                            beta: complex = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Displaced output-field operators (a_out, b_out)."""
    jump = np.sqrt(q.gamma_r / 2.0) * SIGMA_MINUS
    a_out = jump + alpha * IDENTITY_2
    b_out = jump + beta * IDENTITY_2
    return a_out, b_out


def build_single_qubit_liouvillian(q: QubitParams, alpha: complex = 0.0,
                                   beta: complex = 0.0) -> np.ndarray:
    """4x4 Liouvillian of the driven single-emitter master equation."""
    h = single_qubit_hamiltonian(q, alpha, beta)
    a_out, b_out = single_qubit_output_ops(q, alpha, beta)
    return liouvillian_matrix(h, [(1.0, a_out), (1.0, b_out),
                                  (q.gamma_nr, SIGMA_MINUS),
                                  (0.5 * q.gamma_phi, SIGMA_Z)])


def transmission_vs_detuning(q: QubitParams, detunings, alpha: complex = 0.0,
                             beta: complex = 0.0) -> np.ndarray:
    """Steady-state transmission from the full master equation at each
    detuning from the drive in ``detunings`` (``q.omega_q`` is not used).

    <a_out>/alpha when alpha != 0 (whatever beta is); <b_out>/beta for a
    drive from the right only. The detuning enters only through
    H = -(Delta/2) sigma_z, so L(Delta) = L(0) + Delta DETUNING_SUPEROP:
    the Liouvillian is assembled once, every point is solved in one
    ``steady_states`` call (a batched singular-value check and one bordered
    linear solve), and t is read out of the stack of states at once. Raises
    ValueError for an undriven emitter and the first failed point's
    SolverError.
    """
    if alpha == 0 and beta == 0:
        raise ValueError("transmission requires a nonzero drive")
    lv0 = build_single_qubit_liouvillian(replace(q, omega_q=0.0), alpha, beta)
    detunings = np.asarray(detunings, dtype=float)
    states = steady_states(lv0 + detunings[:, None, None] * DETUNING_SUPEROP)
    a_out, b_out = single_qubit_output_ops(q, alpha, beta)
    port, amp = (a_out, alpha) if alpha != 0 else (b_out, beta)
    for rho in states:
        if isinstance(rho, SolverError):
            raise rho
    rhos = np.array(states, dtype=complex).reshape(-1, 2, 2)
    # <port> = tr(port rho) = sum_ij port_ij rho_ji
    return np.einsum("ij,nji->n", port, rhos) / amp


def transmission_numeric(q: QubitParams, alpha: complex = 0.0,
                         beta: complex = 0.0) -> complex:
    """Steady-state transmission from the full master equation at the
    emitter's own detuning: ``transmission_vs_detuning`` at ``q.omega_q``."""
    return complex(transmission_vs_detuning(q, [q.omega_q], alpha, beta)[0])
