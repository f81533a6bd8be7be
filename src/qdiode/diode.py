"""Two-qubit cascaded waveguide system: the quantum diode.

Two emitters couple to one waveguide a propagation phase phi = pi - delta
apart: ``diode_model`` is the two-emitter ``single_qubit.emitter_chain``.
With L_k = sqrt(gamma_r,k/2) sigma_-^(k), its output fields are

    a_out = (alpha + L_1) e^{i phi} + L_2      (right-moving, past qubit 2)
    b_out = (beta + L_2) e^{i phi} + L_1       (left-moving, past qubit 1)

A probe entering from the left (forward, alpha) is transmitted into a_out
and reflected into b_out; one entering from the right (reverse, beta) the
other way round. The device (``DiodeConfig``) holds the two emitters and
delta; the drive amplitudes are arguments of each solve.

Near phase matching the symmetric superposition
|+> = (|ge> + |eg>)/sqrt(2) radiates only at gamma_D = delta^2 gbar / 2 while
|-> superradiates at gamma_B = 2 gbar, gbar = sqrt(gamma_r,1 gamma_r,2); the
asymmetry between drive directions in populating the quasi-dark state makes
the device a diode.

The drive enters H, not the output dissipators (``emitter_chain``), so the
model is affine in a real factor on the drive, and every steady state of
every mode is solved by one ``_drive_sweep``: the model at 0, built once,
and at 1 times each drive, and one ``operators.pencil_states`` call per
drive over the scales, which takes one eigendecomposition and leaves each
point it cannot prove to the SVD rule of ``operators.steady_states``, which
so decides every failure. There are two ways in, one per job:

- ``power_sweep`` is the one sweep: one ``_drive_sweep`` of both sides
  over all its amplitudes, which solves the sides in turn. It takes one
  1-d array of powers in any order, and its row, ``DiodeOperatingPoint``,
  is the one result type: ``operating_point`` is a one-power sweep.
- ``driven_state`` is the one single-point solve: it scales a drive from
  both sides as one and returns the state with the model it solved.
  ``spectrum.psd`` reads its state and model from it, and a drive from one
  side gives that side's ``power_sweep`` state bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .operators import (
    SolverError,
    expectation,
    liouvillian_matrix,
    pencil_states,
    real_form,
)
from .single_qubit import QubitParams, _chain_terms, emitter_chain

PI = np.pi
# A solved point whose null gap s_{-2}/s_max is below this is near the
# solver's 1e-10 degeneracy threshold, and its state has few correct digits.
NEAR_DEGENERATE_GAP = 1e-8
# |+> = (|ge> + |eg>)/sqrt(2) in the basis |gg>, |ge>, |eg>, |ee>
DARK_STATE = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class DiodeConfig:
    """Two emitters a propagation phase phi = pi - delta apart."""

    q1: QubitParams
    q2: QubitParams
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if abs(self.delta) >= 1.0:
            warnings.warn(f"|delta| = {abs(self.delta):.3f} is outside the "
                          "perturbative regime the dark/bright analysis assumes",
                          stacklevel=3)   # the caller of the dataclass

    @property
    def gamma_bar(self) -> float:
        return float(np.sqrt(self.q1.gamma_r * self.q2.gamma_r))

    @property
    def phase(self) -> complex:
        """Propagation phase factor e^{i phi}, phi = (pi - delta) mod 2 pi."""
        return np.exp(1j * ((PI - self.delta) % (2.0 * PI)))


class DiodeOperatingPoint(NamedTuple):
    """Steady-state transmission and dark populations at one drive power:
    a ``power_sweep`` row. ``error`` holds a message if the solve failed."""

    power: float
    t_forward: complex
    t_reverse: complex
    efficiency: float
    dark_population_forward: float
    dark_population_reverse: float
    error: str | None = None

    @property
    def dark_probabilities(self) -> tuple[float, float]:
        """The (forward, reverse) dark populations clipped to [0, 1]: the
        blinking mirror's occupation probabilities, free of the solver's
        rounding outside that range."""
        return (min(max(self.dark_population_forward, 0.0), 1.0),
                min(max(self.dark_population_reverse, 0.0), 1.0))


class DrivenState(NamedTuple):
    """Steady state under a general drive from both sides: the output
    fluxes <a_out^dag a_out> and <b_out^dag b_out> in photons/s, and the
    populations of |gg>, |ge>, |eg>, |ee>. ``model`` is the
    (L, a_out, b_out) that ``rho`` solves."""

    rho: np.ndarray
    dark_population: float
    flux_a: float
    flux_b: float
    populations: tuple[float, float, float, float]
    model: tuple[np.ndarray, np.ndarray, np.ndarray]


# -----------------------------------------------------------------------------
#                       Phase and rate bookkeeping
# -----------------------------------------------------------------------------

def optimal_tuning(delta: float, gamma_bar: float) -> tuple[float, float]:
    """Qubit detunings from the drive that compensate the phase asymmetry at
    phi = pi - delta: (-delta*gamma_bar, 0)."""
    return -delta * gamma_bar, 0.0


def dark_bright_rates(delta: float, gr1: float, gr2: float) -> tuple[float, float]:
    """Quasi-dark and bright collective decay rates (gamma_D, gamma_B);
    raises ValueError for a non-finite delta or a rate that is not positive."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    for name, rate in (("gr1", gr1), ("gr2", gr2)):
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"{name} must be finite and > 0, got {rate}")
    if abs(delta) >= 1.0:
        warnings.warn(f"|delta| = {abs(delta):.3f} is outside the perturbative "
                      "regime; gamma_D = delta^2 gbar/2 is a small-delta result",
                      stacklevel=2)
    gbar = math.sqrt(gr1 * gr2)
    return float(0.5 * delta * delta * gbar), 2.0 * gbar


def dark_state_population(rho: np.ndarray) -> float | np.ndarray:
    """<+|rho|+> for the symmetric single-excitation state: a float for one
    4x4 state, an array for an (N, 4, 4) stack. A state reads the same bits
    alone as in a stack."""
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError("dark-state population is defined for 4x4 states")
    stack = rho if rho.ndim == 3 else rho[None]
    dark = np.einsum("i,nij,j->n", DARK_STATE.conj(), stack, DARK_STATE).real
    return dark if rho.ndim == 3 else float(dark[0])


# -----------------------------------------------------------------------------
#                      Master equation and steady states
# -----------------------------------------------------------------------------

def diode_model(c: DiodeConfig, alpha: complex = 0.0,
                beta: complex = 0.0):
    """(L, a_out, b_out) of the device under amplitudes alpha (from the
    left) and beta (from the right): the two-emitter ``emitter_chain`` with
    phase e^{i phi}.

    The dephasing convention is the one place the models differ. The chain
    applies (gamma_phi/2) D[sigma_z] to each emitter, but each qubit goes in
    with gamma_phi doubled: the diode applies gamma_phi D[sigma_z], and a
    coherence decays at gamma_1/2 + 2 gamma_phi, not at ``gamma_2``.
    """
    return emitter_chain(*_chain(c, alpha, beta))


def _chain(c: DiodeConfig, alpha: complex = 0.0, beta: complex = 0.0):
    """The device's ``emitter_chain`` arguments under (alpha, beta)."""
    # ROADMAP item 1 removes this doubling (and edits predicted_linewidth),
    # which gives both models the single-qubit convention.
    return ([replace(q, gamma_phi=2.0 * q.gamma_phi) for q in (c.q1, c.q2)],
            c.phase, alpha, beta)


def _drive(direction: str, amp):
    """(alpha, beta) for a drive of amplitude ``amp`` from one side."""
    if direction == "forward":
        return amp, 0.0
    if direction == "reverse":
        return 0.0, amp
    raise ValueError(f"unknown direction {direction!r}")


def _drive_sweep(c: DiodeConfig, drives, scales):
    """The one solve of diode drives: for each (alpha, beta) in ``drives``,
    the ``SteadyStates``, <a_out> and <b_out> (NaN where a point failed)
    under the drive (x alpha, x beta) at each real scale x in ``scales``,
    and the models (L, a_out, b_out) at x = 0 (one for all drives) and 1
    that it solves.

    The model is affine in x. Its dissipators are assembled once, in L(0),
    and L(1) = L(0) - i[H(1) - H(0), .]: a drive term changes the
    excitation number, so it lands on zeros of L(0), and L(1) is
    ``diode_model``'s bit for bit. Each drive's L(0) + x (L(1) - L(0)) is
    solved, in real Hermitian coordinates, at every x in one
    ``pencil_states`` call, and the output fields are read out of all its
    states at once. A point's ``null_gap`` is the SVD's where it failed or
    the SVD solved it, and a lower bound on that gap where the pencil solved
    it; its values do not depend on the other points of the sweep.
    """
    h0, jumps, outs0 = _chain_terms(*_chain(c))
    lv0 = liouvillian_matrix(h0, jumps)
    real0, xs = real_form(lv0), np.asarray(scales, dtype=float)
    sweeps = []
    for drive in drives:
        h1, _, outs1 = _chain_terms(*_chain(c, *drive))
        lv1 = lv0 + liouvillian_matrix(h1 - h0, [])
        solved = pencil_states(real0, real_form(lv1), xs)
        # <O> = tr(O rho) = sum_ij O_ij rho_ji, for O = O(0) + x (O(1) - O(0)).
        a_mean, b_mean = (np.einsum("ij,nji->n", o0, solved.rho)
                          + xs * np.einsum("ij,nji->n", o1 - o0, solved.rho)
                          for o0, o1 in zip(outs0, outs1))
        sweeps.append((solved, a_mean, b_mean,
                       ((lv0, *outs0), (lv1, *outs1))))
    return sweeps


def _gap_diagnostics(info: dict, gaps, residuals) -> None:
    """Set the smallest null gap, the largest residual (each None without
    points) and ``near_degenerate_rows``, the number of points with a drive
    whose null gap is below NEAR_DEGENERATE_GAP, from (drives, points)
    arrays."""
    info["min_null_gap"] = float(gaps.min()) if gaps.size else None
    info["max_residual"] = float(residuals.max()) if residuals.size else None
    info["near_degenerate_rows"] = int(
        np.sum(np.any(gaps < NEAR_DEGENERATE_GAP, axis=0)))


def diode_efficiency(t_f: complex, t_r: complex) -> float:
    """Nonreciprocity measure E = |t_f| (|t_f| - |t_r|) / (|t_f| + |t_r|).

    Defined as 0 in the zero-transmission limit |t_f| = |t_r| = 0.
    """
    af, ar = abs(t_f), abs(t_r)
    total = af + ar
    if total == 0.0:
        return 0.0
    return af * (af - ar) / total


def _check_power(power) -> None:
    """Raise ValueError, naming the first bad value, unless ``power`` (a
    number or an array) holds only finite, nonnegative photon fluxes."""
    power = np.asarray(power)
    bad = ~(np.isfinite(power) & (power >= 0))
    if bad.any():
        raise ValueError(
            f"drive power must be finite and >= 0, got {power[bad][0]}")


def operating_point(c: DiodeConfig, power: float,
                    info: dict | None = None) -> DiodeOperatingPoint:
    """Solve both drive directions at photon flux ``power`` = |amplitude|^2:
    ``power_sweep`` at one power, raising the SolverError of a failed solve.
    ``info`` is passed to that sweep, which sets its solver diagnostics."""
    row = power_sweep(c, [power], info=info)[0]
    if row.error is not None:
        raise SolverError(row.error)
    return row


def driven_state(c: DiodeConfig, alpha: complex, beta: complex,
                 info: dict | None = None) -> DrivenState:
    """Solve the device under complex amplitudes alpha (from the left) and
    beta (from the right) at once: the one single-point solve. Raises
    ValueError for a non-finite amplitude and SolverError if the steady
    state is not unique; if ``info`` is a dict, sets the diagnostics of its
    one solve in it, as ``power_sweep`` sets those of its two.

    One ``_drive_sweep`` of the drive at unit total amplitude solves it at
    s = ||(alpha, beta)||, and ``model`` is formed at s from its two builds,
    so a drive from one side gives that side's ``power_sweep`` state.
    """
    for name, amp in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(amp):
            raise ValueError(f"drive amplitude {name} must be finite, got {amp}")
    s = math.hypot(abs(alpha), abs(beta)) or 1.0
    [(solved, _, _, ends)] = _drive_sweep(c, [(alpha / s, beta / s)], [s])
    if solved.error[0] is not None:
        raise SolverError(solved.error[0])
    if info is not None:
        _gap_diagnostics(info, solved.null_gap[None], solved.residual[None])
    model = tuple(m0 + s * (m1 - m0) for m0, m1 in zip(*ends))
    rho, (_, a_out, b_out) = solved.rho[0], model
    return DrivenState(
        rho=rho, dark_population=dark_state_population(rho),
        flux_a=float(expectation(a_out.conj().T @ a_out, rho).real),
        flux_b=float(expectation(b_out.conj().T @ b_out, rho).real),
        populations=tuple(float(rho[i, i].real) for i in range(4)),
        model=model)


def power_sweep(c: DiodeConfig, powers, *,
                info: dict | None = None) -> list[DiodeOperatingPoint]:
    """Transmission, efficiency and dark population at each drive power
    (photon flux |amp|^2) of the 1-d ``powers``, in any order, one row per
    power, driving from each side in turn.

    One ``_drive_sweep`` solves the forward and then the reverse drive at
    every power; the sides share only the undriven model, so a side's
    values do not depend on the other. A power whose solve fails on either
    side becomes a row of NaN values whose ``error`` is the first failed
    side's ``SteadyStates.error`` message; the sweep goes on.

    If ``info`` is a dict, three solver diagnostics are set in it from the
    ``null_gap`` and ``residual`` fields of both sides' ``SteadyStates``,
    over the rows that did not fail: ``"min_null_gap"``, the smallest
    s_{-2} / s_max, or lower bound on it where the pencil solved the row
    (see ``operators.pencil_states``), and ``"max_residual"``, the largest
    residual ||L vec(rho)||, each None if every row failed; and
    ``"near_degenerate_rows"``, the number of those rows with a side whose
    null gap is below ``NEAR_DEGENERATE_GAP``.
    """
    powers = np.asarray(list(powers), dtype=float)
    if powers.ndim != 1:
        raise ValueError(f"powers must be 1-d, got shape {powers.shape}")
    _check_power(powers)
    amps = np.sqrt(powers)
    (fwd, a_mean, _, _), (rev, _, b_mean, _) = _drive_sweep(
        c, [(1.0, 0.0), (0.0, 1.0)], amps)
    # One row per side, forward then reverse, one column per power: t =
    # <a_out>/a forward, <b_out>/a reverse, and 0 at a = 0, where a failed
    # point keeps its NaN.
    out = np.array([a_mean, b_mean])
    t = np.divide(out, amps, out=np.where(np.isnan(out), out, 0.0),
                  where=amps != 0)
    dark = np.array([dark_state_population(fwd.rho),
                     dark_state_population(rev.rho)])
    # A power keeps the message of its first failed side.
    errors = [f if f is not None else r for f, r in zip(fwd.error, rev.error)]
    failed = np.array([e is not None for e in errors], dtype=bool)
    t[:, failed] = complex(np.nan, np.nan)
    dark[:, failed] = np.nan
    rows = [DiodeOperatingPoint(
                power=p, t_forward=t_f, t_reverse=t_r,
                efficiency=diode_efficiency(t_f, t_r),
                dark_population_forward=dark_f,
                dark_population_reverse=dark_r, error=e)
            for p, t_f, t_r, dark_f, dark_r, e
            in zip(powers.tolist(), *t.tolist(), *dark.tolist(), errors)]
    if info is not None:
        # One row per side, one column per power; keep the accepted.
        _gap_diagnostics(info,
                         np.array([fwd.null_gap, rev.null_gap])[:, ~failed],
                         np.array([fwd.residual, rev.residual])[:, ~failed])
    return rows
