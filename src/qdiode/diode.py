"""Two-qubit cascaded waveguide system: the quantum diode.

Two emitters couple to the same waveguide a fixed propagation phase phi apart.
Writing L_k = sqrt(gamma_r,k/2) sigma_-^(k) and working in the drive's
rotating frame, where Delta_k is qubit k's detuning from the drive
(``QubitParams.omega_q``), the cascaded master equation is

    drho/dt = -i[H_T, rho] + D[a_out] + D[b_out]
              + gamma_nr (D[sigma_-^(1)] + D[sigma_-^(2)])
              + gamma_phi (D[sigma_z^(1)] + D[sigma_z^(2)])

    H_T = -(Delta_1/2) sigma_z^(1) - (Delta_2/2) sigma_z^(2)
          - i/2 (alpha L_1^dag - alpha* L_1) - i/2 (beta L_2^dag - beta* L_2)
          - i/2 (e^{i phi} L_2^dag (L_1 + alpha) - h.c.)
          - i/2 (e^{i phi} L_1^dag (L_2 + beta) - h.c.)

    a_out = (alpha + L_1) e^{i phi} + L_2      (right-moving, past qubit 2)
    b_out = (beta + L_2) e^{i phi} + L_1       (left-moving, past qubit 1)

The device (``DiodeConfig``) holds the two emitters and delta; the drive
amplitudes alpha and beta are arguments of each solve. A probe entering from
the left (forward, alpha) is transmitted into a_out and reflected into
b_out; one entering from the right (reverse, beta) the other way round.

Near phase matching, phi = pi - delta, the symmetric superposition
|+> = (|ge> + |eg>)/sqrt(2) radiates only at gamma_D = delta^2 gbar / 2 while
|-> superradiates at gamma_B = 2 gbar, gbar = sqrt(gamma_r,1 gamma_r,2); the
asymmetry between drive directions in populating the quasi-dark state makes
the device a diode.

For a drive of real amplitude a from one side, H_T and the displaced
dissipators are affine in a (the |a|^2 terms of D[a_out] and D[b_out]
cancel), so the Liouvillian is L(a) = L0 + a L1 with L0 = L(0) and
L1 = L(1) - L0, and the transmitted-port operator is affine in a as well.
``power_sweep``, ``operating_point`` and ``transmission`` build L0 and L1
once per side and convert the two to real Hermitian coordinates
(``operators.real_form``). They solve the real stack L0 + a L1 over all
their amplitudes in one ``steady_states`` call, and read t and the dark
population of every solved point out of the stack at once. A general drive
from both sides has no such one-amplitude form: ``driven_state`` assembles
and solves its one Liouvillian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    real_form,
    steady_state,
    steady_states,
)
from .single_qubit import QubitParams

PI = np.pi
# A solved side whose null gap s_{-2}/s_max is below this is near the
# solver's 1e-10 degeneracy threshold, and its state has few correct digits.
NEAR_DEGENERATE_GAP = 1e-8

SIGMA_MINUS_1 = embed_qubit1(SIGMA_MINUS)
SIGMA_MINUS_2 = embed_qubit2(SIGMA_MINUS)
SIGMA_Z_1 = embed_qubit1(SIGMA_Z)
SIGMA_Z_2 = embed_qubit2(SIGMA_Z)

# |+> = (|ge> + |eg>)/sqrt(2) in the basis |gg>, |ge>, |eg>, |ee>
DARK_STATE = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class DiodeConfig:
    """Two emitters a propagation phase phi = pi - delta apart."""

    q1: QubitParams
    q2: QubitParams
    delta: float

    def __post_init__(self):
        if abs(self.delta) >= 1.0:
            warnings.warn(f"|delta| = {abs(self.delta):.3f} is outside the "
                          "perturbative regime the dark/bright analysis assumes",
                          stacklevel=2)

    @property
    def gamma_bar(self) -> float:
        return float(np.sqrt(self.q1.gamma_r * self.q2.gamma_r))

    @property
    def phase(self) -> complex:
        """Propagation phase factor e^{i phi}, phi = (pi - delta) mod 2 pi."""
        return np.exp(1j * ((PI - self.delta) % (2.0 * PI)))


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

    @property
    def dark_probabilities(self) -> tuple[float, float]:
        """The (forward, reverse) dark populations clipped to [0, 1]: the
        blinking mirror's occupation probabilities, free of the solver's
        rounding outside that range."""
        return (min(max(self.dark_population_forward, 0.0), 1.0),
                min(max(self.dark_population_reverse, 0.0), 1.0))


@dataclass(frozen=True)
class DrivenState:
    """Steady state under a general drive from both sides: the output
    fluxes <a_out^dag a_out> and <b_out^dag b_out> in photons/s, and the
    populations of |gg>, |ge>, |eg>, |ee>."""

    rho: np.ndarray
    dark_population: float
    flux_a: float
    flux_b: float
    populations: tuple[float, float, float, float]


# -----------------------------------------------------------------------------
#                       Phase and rate bookkeeping
# -----------------------------------------------------------------------------

def optimal_tuning(delta: float, gamma_bar: float) -> tuple[float, float]:
    """Qubit detunings from the drive that compensate the phase asymmetry at
    phi = pi - delta: (-delta*gamma_bar, 0)."""
    return -delta * gamma_bar, 0.0


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

def diode_hamiltonian(c: DiodeConfig, alpha: complex = 0.0,
                      beta: complex = 0.0) -> np.ndarray:
    """H_T in the drive's rotating frame, including drive and cascade terms."""
    l1 = np.sqrt(c.q1.gamma_r / 2.0) * SIGMA_MINUS_1
    l2 = np.sqrt(c.q2.gamma_r / 2.0) * SIGMA_MINUS_2
    phase = c.phase

    h = -0.5 * c.q1.omega_q * SIGMA_Z_1 - 0.5 * c.q2.omega_q * SIGMA_Z_2
    h = h - 0.5j * (alpha * l1.conj().T - np.conj(alpha) * l1)
    h = h - 0.5j * (beta * l2.conj().T - np.conj(beta) * l2)
    casc1 = phase * l2.conj().T @ (l1 + alpha * IDENTITY_4)
    casc2 = phase * l1.conj().T @ (l2 + beta * IDENTITY_4)
    h = h - 0.5j * (casc1 - casc1.conj().T)
    h = h - 0.5j * (casc2 - casc2.conj().T)
    return h


def diode_output_ops(c: DiodeConfig, alpha: complex = 0.0,
                     beta: complex = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Right- and left-moving output field operators (a_out, b_out)."""
    l1 = np.sqrt(c.q1.gamma_r / 2.0) * SIGMA_MINUS_1
    l2 = np.sqrt(c.q2.gamma_r / 2.0) * SIGMA_MINUS_2
    phase = c.phase
    a_out = (alpha * IDENTITY_4 + l1) * phase + l2
    b_out = (beta * IDENTITY_4 + l2) * phase + l1
    return a_out, b_out


def build_diode_liouvillian(c: DiodeConfig, alpha: complex = 0.0,
                            beta: complex = 0.0) -> np.ndarray:
    """16x16 Liouvillian of the cascaded two-qubit master equation."""
    h = diode_hamiltonian(c, alpha, beta)
    a_out, b_out = diode_output_ops(c, alpha, beta)
    return liouvillian_matrix(h, [(1.0, a_out), (1.0, b_out),
                                  (c.q1.gamma_nr, SIGMA_MINUS_1),
                                  (c.q2.gamma_nr, SIGMA_MINUS_2),
                                  (c.q1.gamma_phi, SIGMA_Z_1),
                                  (c.q2.gamma_phi, SIGMA_Z_2)])


def _one_sided(c: DiodeConfig, direction: str, amp: complex):
    """Liouvillian and (transmitted, reflected) output operators for a drive
    of amplitude ``amp`` from one side: alpha = amp forward (a_out carries
    the transmitted field), beta = amp reverse (b_out does)."""
    if direction == "forward":
        alpha, beta = amp, 0.0
    elif direction == "reverse":
        alpha, beta = 0.0, amp
    else:
        raise ValueError(f"unknown direction {direction!r}")
    a_out, b_out = diode_output_ops(c, alpha, beta)
    ports = (a_out, b_out) if direction == "forward" else (b_out, a_out)
    return build_diode_liouvillian(c, alpha, beta), ports


def _solve_side(c: DiodeConfig, direction: str, amps,
                info: dict | None = None) -> list:
    """Steady state under a drive from one side, for each real amplitude in
    ``amps``: a (t, dark population, rho) triple, or the point's SolverError.

    For a real amplitude a the Liouvillian is affine, L(a) = L0 + a L1 with
    L0 = L(0) and L1 = L(1) - L0, and so is the transmitted-port operator.
    The side is therefore assembled twice whatever the number of amplitudes,
    L(0) and L(1) are each converted to real Hermitian coordinates once,
    the real stack L0 + a L1 is solved in one ``steady_states`` call (which
    fills ``info``), and t and the dark population of every solved point
    are read out together. t = <a_out>/a forward, <b_out>/a reverse, and 0
    at a = 0.
    """
    lv0, (out0, _) = _one_sided(c, direction, 0.0)
    lv1, (out1, _) = _one_sided(c, direction, 1.0)
    lv0, lv1 = real_form(lv0), real_form(lv1)
    amps = np.asarray(amps, dtype=float)
    states = steady_states(lv0 + amps[:, None, None] * (lv1 - lv0), info)
    solved = [k for k, rho in enumerate(states)
              if not isinstance(rho, SolverError)]
    rhos = np.array([states[k] for k in solved]).reshape(-1, 4, 4)
    a = amps[solved]
    # <O> = tr(O rho) = sum_ij O_ij rho_ji, for O = out0 + a (out1 - out0).
    out = (np.einsum("ij,nji->n", out0, rhos)
           + a * np.einsum("ij,nji->n", out1 - out0, rhos))
    t = np.divide(out, a, out=np.zeros_like(out), where=a != 0)
    dark = np.einsum("i,nij,j->n", DARK_STATE.conj(), rhos, DARK_STATE).real
    results = list(states)
    for k, t_k, dark_k, rho in zip(solved, t.tolist(), dark.tolist(), rhos):
        results[k] = (t_k, dark_k, rho)
    return results


def _solve_point(c: DiodeConfig, direction: str,
                 amp: float) -> tuple[complex, float, np.ndarray]:
    """``_solve_side`` at one amplitude, raising its SolverError."""
    result = _solve_side(c, direction, [amp])[0]
    if isinstance(result, SolverError):
        raise result
    return result


def transmission(c: DiodeConfig, direction: str, power: float) -> complex:
    """Directional steady-state transmission amplitude at photon flux
    ``power`` = |amplitude|^2.

    forward: t = <a_out>/alpha with beta = 0; reverse: t = <b_out>/beta with
    alpha = 0. As in ``operating_point``, t = 0 at zero power.
    """
    _check_power(power)
    return _solve_point(c, direction, np.sqrt(power))[0]


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
    t_f, dark_f, rho_f = _solve_point(c, "forward", amp)
    t_r, dark_r, rho_r = _solve_point(c, "reverse", amp)
    return DiodeOperatingPoint(
        t_forward=t_f, t_reverse=t_r,
        efficiency=diode_efficiency(t_f, t_r),
        rho_ss_forward=rho_f, rho_ss_reverse=rho_r,
        dark_population_forward=dark_f, dark_population_reverse=dark_r)


def driven_state(c: DiodeConfig, alpha: complex,
                 beta: complex) -> DrivenState:
    """Solve the device under complex amplitudes alpha (from the left) and
    beta (from the right) at once; raises SolverError if the steady state
    is not unique."""
    rho = steady_state(build_diode_liouvillian(c, alpha, beta))
    a_out, b_out = diode_output_ops(c, alpha, beta)
    return DrivenState(
        rho=rho, dark_population=dark_state_population(rho),
        flux_a=float(expectation(a_out.conj().T @ a_out, rho).real),
        flux_b=float(expectation(b_out.conj().T @ b_out, rho).real),
        populations=tuple(float(rho[i, i].real) for i in range(4)))


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


def power_sweep(c: DiodeConfig, powers, sides=("forward", "reverse"),
                info: dict | None = None) -> list[SweepRow]:
    """Transmission, efficiency and dark population over ascending drive
    powers (photon flux |amp|^2), driving from each side in ``sides``.

    Each (power, side) steady state is solved once: a side's Liouvillian is
    affine in the real amplitude, L0 + amp L1, so it is assembled twice,
    converted to real Hermitian coordinates twice, and all its powers are
    solved together, from one batched singular-value check and one bordered
    linear solve in real arithmetic (``steady_states``). A side not in
    ``sides`` gets NaN transmission and dark population, so the efficiency
    is NaN unless both sides are solved. A power whose solve fails on any
    side becomes a row of NaN values with the message of the first failed
    side in ``error``; the sweep goes on.

    If ``info`` is a dict, three solver diagnostics over the solved sides of
    the rows that did not fail are set in it: ``"min_null_gap"``, the
    smallest s_{-2} / s_max (see ``steady_states``), and ``"max_residual"``,
    the largest residual ||L vec(rho)||, each None if every row failed; and
    ``"near_degenerate_rows"``, the number of those rows with a side whose
    null gap is below NEAR_DEGENERATE_GAP.
    """
    powers = list(powers)
    for p in powers:
        _check_power(p)
    if any(p2 < p1 for p1, p2 in zip(powers, powers[1:])):
        raise ValueError("powers must be sorted ascending")
    unknown = set(sides) - {"forward", "reverse"}
    if unknown:
        raise ValueError(f"unknown direction(s) {sorted(unknown)}")
    amps = np.sqrt(np.asarray(powers, dtype=float))
    solved, gaps, resids = {}, [], []
    for side in sides:
        side_info: dict = {}
        solved[side] = _solve_side(c, side, amps, side_info)
        gaps.append(side_info["null_gap"])
        resids.append(side_info["residual"])
    nan_t = complex(np.nan, np.nan)
    rows = []
    for k, p in enumerate(powers):
        t = {"forward": nan_t, "reverse": nan_t}
        dark = {"forward": np.nan, "reverse": np.nan}
        errors = [solved[side][k] for side in sides
                  if isinstance(solved[side][k], SolverError)]
        if errors:
            rows.append(SweepRow(power=p, t_forward=nan_t, t_reverse=nan_t,
                                 efficiency=np.nan,
                                 dark_population_forward=np.nan,
                                 dark_population_reverse=np.nan,
                                 error=str(errors[0])))
            continue
        for side in sides:
            t[side], dark[side], _ = solved[side][k]
        # NaN from a side not solved propagates into the efficiency.
        rows.append(SweepRow(
            power=p, t_forward=t["forward"], t_reverse=t["reverse"],
            efficiency=diode_efficiency(t["forward"], t["reverse"]),
            dark_population_forward=dark["forward"],
            dark_population_reverse=dark["reverse"]))
    if info is not None:
        # One row per side, one column per power; keep the accepted powers.
        accepted = np.array([r.error is None for r in rows], dtype=bool)
        shape = (len(sides), len(powers))
        gaps = np.reshape(gaps, shape)[:, accepted]
        resids = np.reshape(resids, shape)[:, accepted]
        info["min_null_gap"] = float(gaps.min()) if gaps.size else None
        info["max_residual"] = float(resids.max()) if resids.size else None
        info["near_degenerate_rows"] = int(
            np.sum(np.any(gaps < NEAR_DEGENERATE_GAP, axis=0)))
    return rows
