"""Single-atom waveguide scattering model.

A two-level emitter couples to left- and right-moving waveguide modes with
radiative rate gamma_r (split evenly between directions), plus non-radiative
decay gamma_nr and pure dephasing gamma_phi. In the frame rotating at the
drive frequency the coherent drives alpha (from the left) and beta (from the
right) enter both the Hamiltonian and the displaced output-field dissipators:

    L       = sqrt(gamma_r/2) sigma_-
    a_out   = L + alpha,      b_out = L + beta
    H       = -(delta_omega/2) sigma_z
              - i/2 [ (alpha+beta) sqrt(gamma_r/2) sigma_+  -  h.c. ]
    drho/dt = -i[H,rho] + D[a_out] + D[b_out]
              + gamma_nr D[sigma_-] + (gamma_phi/2) D[sigma_z]

with delta_omega = omega_q - omega_d. The steady-state transmission
<a_out>/alpha has the closed form implemented in ``transmission_analytic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    expectation,
    liouvillian_matrix,
    steady_state,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QubitParams:
    """One emitter's frequency and decay/dephasing rates, all in rad/s."""

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


@dataclass(frozen=True)
class DriveConfig:
    """Drive frequency, directional amplitudes, and propagation phase.

    |alpha|^2 and |beta|^2 are photon fluxes in photons/s; phi is the
    qubit-to-qubit propagation phase used by the two-qubit model.
    """

    omega_d: float
    alpha: complex = 0.0
    beta: complex = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phi < TWO_PI:
            object.__setattr__(self, "phi", self.phi % TWO_PI)


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


def single_qubit_hamiltonian(q: QubitParams, d: DriveConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian including the coherent drive terms."""
    delta_omega = q.omega_q - d.omega_d
    coupling = np.sqrt(q.gamma_r / 2.0)
    amp = d.alpha + d.beta
    h = -0.5 * delta_omega * SIGMA_Z
    h = h - 0.5j * coupling * (amp * SIGMA_PLUS - np.conj(amp) * SIGMA_MINUS)
    return h


def single_qubit_output_ops(q: QubitParams, d: DriveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Displaced output-field operators (a_out, b_out)."""
    jump = np.sqrt(q.gamma_r / 2.0) * SIGMA_MINUS
    a_out = jump + d.alpha * IDENTITY_2
    b_out = jump + d.beta * IDENTITY_2
    return a_out, b_out


def build_single_qubit_liouvillian(q: QubitParams, d: DriveConfig) -> np.ndarray:
    """4x4 Liouvillian of the driven single-emitter master equation."""
    h = single_qubit_hamiltonian(q, d)
    a_out, b_out = single_qubit_output_ops(q, d)
    jumps = [(1.0, a_out), (1.0, b_out)]
    if q.gamma_nr > 0:
        jumps.append((q.gamma_nr, SIGMA_MINUS))
    if q.gamma_phi > 0:
        jumps.append((0.5 * q.gamma_phi, SIGMA_Z))
    return liouvillian_matrix(h, jumps)


def transmission_numeric(q: QubitParams, d: DriveConfig) -> complex:
    """Steady-state transmission from the full master equation.

    <a_out>/alpha when alpha != 0 (whatever beta is); <b_out>/beta for a
    drive from the right only. Raises ValueError for an undriven emitter.
    """
    if d.alpha == 0 and d.beta == 0:
        raise ValueError("transmission requires a nonzero drive")
    lv = build_single_qubit_liouvillian(q, d)
    rho = steady_state(lv)
    a_out, b_out = single_qubit_output_ops(q, d)
    if d.alpha != 0:
        return expectation(a_out, rho) / d.alpha
    return expectation(b_out, rho) / d.beta
