"""Two-qubit cascaded waveguide system: the quantum diode.

Two emitters couple to the same waveguide a fixed propagation phase phi apart.
Writing L_k = sqrt(gamma_r,k/2) sigma_-^(k) and working in the drive's
rotating frame (Delta_k = omega_k - omega_d), the cascaded master equation is

    drho/dt = -i[H_T, rho] + D[a_out] + D[b_out]
              + gamma_nr (D[sigma_-^(1)] + D[sigma_-^(2)])
              + gamma_phi (D[sigma_z^(1)] + D[sigma_z^(2)])

    H_T = -(Delta_1/2) sigma_z^(1) - (Delta_2/2) sigma_z^(2)
          - i/2 (alpha L_1^dag - alpha* L_1) - i/2 (beta L_2^dag - beta* L_2)
          - i/2 (e^{i phi} L_2^dag (L_1 + alpha) - h.c.)
          - i/2 (e^{i phi} L_1^dag (L_2 + beta) - h.c.)

    a_out = (alpha + L_1) e^{i phi} + L_2      (right-moving, past qubit 2)
    b_out = (beta + L_2) e^{i phi} + L_1       (left-moving, past qubit 1)

Near phase matching, phi = pi - delta, the symmetric superposition
|+> = (|ge> + |eg>)/sqrt(2) radiates only at gamma_D = delta^2 gbar / 2 while
|-> superradiates at gamma_B = 2 gbar, gbar = sqrt(gamma_r,1 gamma_r,2); the
asymmetry between drive directions in populating the quasi-dark state makes
the device a diode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    IDENTITY_4,
    SIGMA_MINUS,
    SIGMA_Z,
    SolverError,
    embed_qubit1,
    embed_qubit2,
    expectation,
    liouvillian_matrix,
    steady_state,
)
from .single_qubit import DriveConfig, QubitParams

PI = np.pi
SPEED_OF_LIGHT = 299_792_458.0   # m/s, exact by SI definition

SIGMA_MINUS_1 = embed_qubit1(SIGMA_MINUS)
SIGMA_MINUS_2 = embed_qubit2(SIGMA_MINUS)
SIGMA_Z_1 = embed_qubit1(SIGMA_Z)
SIGMA_Z_2 = embed_qubit2(SIGMA_Z)

# |+> = (|ge> + |eg>)/sqrt(2) in the basis |gg>, |ge>, |eg>, |ee>
DARK_STATE = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
BRIGHT_STATE = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class DiodeConfig:
    """Two emitters, one drive, and the propagation phase offset delta.

    The drive's phi and delta are stored redundantly (phi = pi - delta) and
    checked for consistency.
    """

    q1: QubitParams
    q2: QubitParams
    drive: DriveConfig
    delta: float

    def __post_init__(self):
        phi_from_delta = (PI - self.delta) % (2.0 * PI)
        if abs(phi_from_delta - self.drive.phi) > 1e-12:
            raise ValueError(
                f"inconsistent phase: drive.phi={self.drive.phi!r} but "
                f"pi - delta = {phi_from_delta!r}")
        if abs(self.delta) >= 1.0:
            warnings.warn(f"|delta| = {abs(self.delta):.3f} is outside the "
                          "perturbative regime the dark/bright analysis assumes",
                          stacklevel=2)

    @classmethod
    def from_delta(cls, q1: QubitParams, q2: QubitParams, omega_d: float,
                   delta: float, alpha: complex = 0.0, beta: complex = 0.0):
        drive = DriveConfig(omega_d=omega_d, alpha=alpha, beta=beta,
                            phi=(PI - delta) % (2.0 * PI))
        return cls(q1=q1, q2=q2, drive=drive, delta=delta)

    @property
    def gamma_bar(self) -> float:
        return float(np.sqrt(self.q1.gamma_r * self.q2.gamma_r))

    def with_amplitudes(self, alpha: complex, beta: complex) -> "DiodeConfig":
        return replace(self, drive=replace(self.drive, alpha=alpha, beta=beta))


@dataclass(frozen=True)
class DiodeOperatingPoint:
    """Steady-state transmission and state data for one drive power."""

    t_forward: complex
    t_reverse: complex
    efficiency: float
    rho_ss_forward: np.ndarray
    rho_ss_reverse: np.ndarray
    dark_population_forward: float
    dark_population_reverse: float


# -----------------------------------------------------------------------------
#                       Phase and rate bookkeeping
# -----------------------------------------------------------------------------

def phase_from_frequency(omega_d: float, omega_pi: float) -> tuple[float, float]:
    """Propagation phase phi = pi omega_d/omega_pi and its offset delta = pi - phi."""
    if omega_d <= 0 or omega_pi <= 0:
        raise ValueError("frequencies must be positive")
    phi = PI * omega_d / omega_pi
    return phi, PI - phi


def dispersive_phase(f: float, f_c: float, d: float) -> float:
    """TE10 rectangular-waveguide propagation phase at frequency f over length d.

    phi = (2 pi f d / c) sqrt(1 - (f_c/f)^2); raises below the cutoff f_c.
    """
    if f <= f_c:
        raise ValueError(f"frequency {f} Hz is at or below the cutoff {f_c} Hz")
    return (2.0 * PI * f * d / SPEED_OF_LIGHT) * np.sqrt(1.0 - (f_c / f) ** 2)


def optimal_tuning(omega_d: float, delta: float, gamma_bar: float) -> tuple[float, float]:
    """Qubit frequencies compensating the phase asymmetry at phi = pi - delta.

    omega_1 = omega_d - delta*gamma_bar, omega_2 = omega_d.
    """
    return omega_d - delta * gamma_bar, omega_d


def dark_bright_rates(delta: float, gr1: float, gr2: float) -> tuple[float, float]:
    """Quasi-dark and bright collective decay rates (gamma_D, gamma_B)."""
    if abs(delta) >= 1.0:
        warnings.warn(f"|delta| = {abs(delta):.3f} is outside the perturbative "
                      "regime; gamma_D = delta^2 gbar/2 is a small-delta result",
                      stacklevel=2)
    gbar = np.sqrt(gr1 * gr2)
    return 0.5 * delta * delta * gbar, 2.0 * gbar


def dark_state_population(rho: np.ndarray) -> float:
    """<+|rho|+> for the symmetric single-excitation state."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError("dark-state population is defined for 4x4 states")
    return float(np.real(DARK_STATE.conj() @ rho @ DARK_STATE))


# -----------------------------------------------------------------------------
#                      Master equation and steady states
# -----------------------------------------------------------------------------

def diode_hamiltonian(c: DiodeConfig) -> np.ndarray:
    """H_T in the drive's rotating frame, including drive and cascade terms."""
    d1 = c.q1.omega_q - c.drive.omega_d
    d2 = c.q2.omega_q - c.drive.omega_d
    l1 = np.sqrt(c.q1.gamma_r / 2.0) * SIGMA_MINUS_1
    l2 = np.sqrt(c.q2.gamma_r / 2.0) * SIGMA_MINUS_2
    alpha, beta = c.drive.alpha, c.drive.beta
    phase = np.exp(1j * c.drive.phi)

    h = -0.5 * d1 * SIGMA_Z_1 - 0.5 * d2 * SIGMA_Z_2
    h = h - 0.5j * (alpha * l1.conj().T - np.conj(alpha) * l1)
    h = h - 0.5j * (beta * l2.conj().T - np.conj(beta) * l2)
    casc1 = phase * l2.conj().T @ (l1 + alpha * IDENTITY_4)
    casc2 = phase * l1.conj().T @ (l2 + beta * IDENTITY_4)
    h = h - 0.5j * (casc1 - casc1.conj().T)
    h = h - 0.5j * (casc2 - casc2.conj().T)
    return h


def diode_output_ops(c: DiodeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Right- and left-moving output field operators (a_out, b_out)."""
    l1 = np.sqrt(c.q1.gamma_r / 2.0) * SIGMA_MINUS_1
    l2 = np.sqrt(c.q2.gamma_r / 2.0) * SIGMA_MINUS_2
    phase = np.exp(1j * c.drive.phi)
    a_out = (c.drive.alpha * IDENTITY_4 + l1) * phase + l2
    b_out = (c.drive.beta * IDENTITY_4 + l2) * phase + l1
    return a_out, b_out


def build_diode_liouvillian(c: DiodeConfig) -> np.ndarray:
    """16x16 Liouvillian of the cascaded two-qubit master equation."""
    h = diode_hamiltonian(c)
    a_out, b_out = diode_output_ops(c)
    jumps = [(1.0, a_out), (1.0, b_out)]
    if c.q1.gamma_nr > 0:
        jumps.append((c.q1.gamma_nr, SIGMA_MINUS_1))
    if c.q2.gamma_nr > 0:
        jumps.append((c.q2.gamma_nr, SIGMA_MINUS_2))
    if c.q1.gamma_phi > 0:
        jumps.append((c.q1.gamma_phi, SIGMA_Z_1))
    if c.q2.gamma_phi > 0:
        jumps.append((c.q2.gamma_phi, SIGMA_Z_2))
    return liouvillian_matrix(h, jumps)


def _solve_direction(c: DiodeConfig, direction: str,
                     amp: complex) -> tuple[complex, np.ndarray]:
    """Steady state under drive amplitude ``amp`` from one side only, and its
    transmission: <a_out>/amp forward, <b_out>/amp reverse, 0 at amp = 0."""
    forward = direction == "forward"
    cc = (c.with_amplitudes(amp, 0.0) if forward
          else c.with_amplitudes(0.0, amp))
    rho = steady_state(build_diode_liouvillian(cc))
    if amp == 0:
        return 0.0, rho
    a_out, b_out = diode_output_ops(cc)
    return expectation(a_out if forward else b_out, rho) / amp, rho


def transmission(c: DiodeConfig, direction: str) -> complex:
    """Directional steady-state transmission amplitude.

    forward: t = <a_out>/alpha with beta = 0; reverse: t = <b_out>/beta with
    alpha = 0.
    """
    if direction == "forward":
        if c.drive.alpha == 0 or c.drive.beta != 0:
            raise ValueError("forward transmission needs alpha != 0 and beta = 0")
        return _solve_direction(c, direction, c.drive.alpha)[0]
    if direction == "reverse":
        if c.drive.beta == 0 or c.drive.alpha != 0:
            raise ValueError("reverse transmission needs beta != 0 and alpha = 0")
        return _solve_direction(c, direction, c.drive.beta)[0]
    raise ValueError(f"unknown direction {direction!r}")


def diode_efficiency(t_f: complex, t_r: complex) -> float:
    """Nonreciprocity measure E = |t_f| (|t_f| - |t_r|) / (|t_f| + |t_r|).

    Defined as 0 in the zero-transmission limit |t_f| = |t_r| = 0.
    """
    af, ar = abs(t_f), abs(t_r)
    total = af + ar
    if total == 0.0:
        return 0.0
    return af * (af - ar) / total


def _check_power(power: float) -> None:
    """Raise ValueError unless ``power`` is a finite, nonnegative photon flux."""
    if not (np.isfinite(power) and power >= 0):
        raise ValueError(f"drive power must be finite and >= 0, got {power}")


def operating_point(c: DiodeConfig, power: float) -> DiodeOperatingPoint:
    """Solve both drive directions at photon flux ``power`` = |amplitude|^2."""
    _check_power(power)
    amp = np.sqrt(power)
    t_f, rho_f = _solve_direction(c, "forward", amp)
    t_r, rho_r = _solve_direction(c, "reverse", amp)
    return DiodeOperatingPoint(
        t_forward=t_f, t_reverse=t_r,
        efficiency=diode_efficiency(t_f, t_r),
        rho_ss_forward=rho_f, rho_ss_reverse=rho_r,
        dark_population_forward=dark_state_population(rho_f),
        dark_population_reverse=dark_state_population(rho_r))


@dataclass(frozen=True)
class SweepRow:
    """One power_sweep row; ``error`` holds a message if the solve failed."""

    power: float
    t_forward: complex
    t_reverse: complex
    efficiency: float
    dark_population_forward: float
    dark_population_reverse: float
    error: str | None = None


def power_sweep(c: DiodeConfig, powers,
                sides=("forward", "reverse")) -> list[SweepRow]:
    """Transmission, efficiency and dark population over ascending drive
    powers (photon flux |amp|^2), driving from each side in ``sides``.

    Each (power, side) steady state is solved once. A side not in ``sides``
    gets NaN transmission and dark population, so the efficiency is NaN
    unless both sides are solved. A power whose solve fails becomes a row of
    NaN values with the message in ``error``; the sweep goes on.
    """
    powers = list(powers)
    for p in powers:
        _check_power(p)
    if any(p2 < p1 for p1, p2 in zip(powers, powers[1:])):
        raise ValueError("powers must be sorted ascending")
    unknown = set(sides) - {"forward", "reverse"}
    if unknown:
        raise ValueError(f"unknown direction(s) {sorted(unknown)}")
    nan_t = complex(np.nan, np.nan)
    rows = []
    for p in powers:
        t = {"forward": nan_t, "reverse": nan_t}
        dark = {"forward": np.nan, "reverse": np.nan}
        try:
            amp = np.sqrt(p)
            for side in sides:
                t[side], rho = _solve_direction(c, side, amp)
                dark[side] = dark_state_population(rho)
        except (SolverError, ValueError) as exc:
            rows.append(SweepRow(power=p, t_forward=nan_t, t_reverse=nan_t,
                                 efficiency=np.nan,
                                 dark_population_forward=np.nan,
                                 dark_population_reverse=np.nan,
                                 error=str(exc)))
            continue
        # NaN from a side not solved propagates into the efficiency.
        rows.append(SweepRow(
            power=p, t_forward=t["forward"], t_reverse=t["reverse"],
            efficiency=diode_efficiency(t["forward"], t["reverse"]),
            dark_population_forward=dark["forward"],
            dark_population_reverse=dark["reverse"]))
    return rows
