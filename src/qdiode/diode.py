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
model is affine in a real factor on the drive, and every solve is one
``_drive_sweep``: the model built at 0 and at 1 times a drive, and one
``single_qubit._affine_sweep`` over the scales. There are two ways in, one
per job:

- ``power_sweep`` is the one sweep. It runs ``_drive_sweep`` once per side
  over all its amplitudes, and a long sweep solves its two sides, which are
  two cascaded master equations that share no work, at once on two bound
  worker threads (``_workers.bound_map``). It takes one 1-d array of powers
  in any order, and its row, ``DiodeOperatingPoint``, is the one result
  type: ``operating_point`` is a one-power sweep.
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

from ._workers import bound_map
from .operators import SolverError, expectation
from .single_qubit import (
    QubitParams,
    _affine_sweep,
    _gap_diagnostics,
    emitter_chain,
)

PI = np.pi
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
    # ROADMAP item 1 removes this doubling (and edits predicted_linewidth),
    # which gives both models the single-qubit convention.
    emitters = [replace(q, gamma_phi=2.0 * q.gamma_phi) for q in (c.q1, c.q2)]
    return emitter_chain(emitters, c.phase, alpha, beta)


_SIDES = ("forward", "reverse")
# A sweep of both sides over at least this many powers solves them at once,
# one per worker. Below it the thread starts, and the two workers' turns at
# the interpreter lock, cost about as much as they save: the measured
# crossover on a 2-vCPU host (BENCH_parallel_sides.json, "crossover").
_PARALLEL_SIDES_MIN_POWERS = 128


def _drive(direction: str, amp):
    """(alpha, beta) for a drive of amplitude ``amp`` from one side."""
    if direction == "forward":
        return amp, 0.0
    if direction == "reverse":
        return 0.0, amp
    raise ValueError(f"unknown direction {direction!r}")


def _drive_sweep(c: DiodeConfig, alpha: complex, beta: complex, scales):
    """The one solve of a diode drive: the ``SteadyStates``, <a_out> and
    <b_out> (NaN where a point failed) under the drive (x alpha, x beta) at
    each real scale x in ``scales``, and the model's builds at x = 0 and 1,
    which one ``_affine_sweep`` solves."""
    ends = [diode_model(c, x * alpha, x * beta) for x in (0.0, 1.0)]
    return (*_affine_sweep(ends, scales), ends)


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
    state is not unique; if ``info`` is a dict, sets the solve's diagnostics
    in it as a one-power, one-sided ``power_sweep`` sets them.

    One ``_drive_sweep`` of the drive at unit total amplitude solves it at
    s = ||(alpha, beta)||, and ``model`` is formed at s from its two builds,
    so a drive from one side gives that side's ``power_sweep`` state.
    """
    for name, amp in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(amp):
            raise ValueError(f"drive amplitude {name} must be finite, got {amp}")
    s = math.hypot(abs(alpha), abs(beta)) or 1.0
    solved, _, _, ends = _drive_sweep(c, alpha / s, beta / s, [s])
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


def power_sweep(c: DiodeConfig, powers, sides=("forward", "reverse"),
                info: dict | None = None) -> list[DiodeOperatingPoint]:
    """Transmission, efficiency and dark population at each drive power
    (photon flux |amp|^2) of the 1-d ``powers``, in any order, one row per
    power, driving from each side in the tuple ``sides``.

    Each side solves all its powers in one ``_drive_sweep``. The two sides
    share no work: with both in ``sides`` and at least
    _PARALLEL_SIDES_MIN_POWERS powers, they are solved at once, one on each
    of two worker threads bound to their CPUs (``_workers.bound_map``, the
    worker map mirror-mc uses); otherwise, and with one allowed CPU, in the
    calling thread, which a one-power sweep never leaves. Each side's values
    depend on that side alone, so every row, message and diagnostic is the
    same for any number of CPUs. A side not in ``sides`` gets NaN
    transmission and dark population, so the efficiency is NaN unless both
    sides are solved. A power whose solve fails on any side becomes a row of
    NaN values whose ``error`` is the first failed side's
    ``SteadyStates.error`` message; the sweep goes on.

    If ``info`` is a dict, three solver diagnostics are set in it from the
    ``null_gap`` and ``residual`` fields of each solved side's
    ``SteadyStates``, over the rows that did not fail: ``"min_null_gap"``,
    the smallest s_{-2} / s_max, and ``"max_residual"``, the largest
    residual ||L vec(rho)||, each None if every row failed; and
    ``"near_degenerate_rows"``, the number of those rows with a side whose
    null gap is below ``single_qubit.NEAR_DEGENERATE_GAP``.
    """
    powers = np.asarray(list(powers), dtype=float)
    if powers.ndim != 1:
        raise ValueError(f"powers must be 1-d, got shape {powers.shape}")
    _check_power(powers)
    if isinstance(sides, str):
        raise ValueError(f"sides must be a tuple of directions, such as "
                         f"({sides!r},), not the string {sides!r}")
    unknown = set(sides) - set(_SIDES)
    if unknown:
        raise ValueError(f"unknown direction(s) {sorted(unknown)}")
    amps = np.sqrt(powers)
    # One row per direction in _SIDES, one column per power.
    t = np.full((2, len(powers)), complex(np.nan, np.nan))
    dark = np.full((2, len(powers)), np.nan)
    errors: list = [None] * len(powers)
    gaps, resids = [], []
    workers = len(sides) if len(powers) >= _PARALLEL_SIDES_MIN_POWERS else 1
    solved_sides = bound_map(
        lambda side: _drive_sweep(c, *_drive(side, 1.0), amps),
        sides, workers, "qdiode-sweep")
    for side, (solved, a_mean, b_mean, _) in zip(sides, solved_sides):
        k = _SIDES.index(side)
        out = a_mean if side == "forward" else b_mean
        # t = <a_out>/a forward, <b_out>/a reverse, and 0 at a = 0; a failed
        # point keeps its NaN at a = 0 too.
        t[k] = np.divide(out, amps, out=np.where(np.isnan(out), out, 0.0),
                         where=amps != 0)
        dark[k] = dark_state_population(solved.rho)
        # A power keeps the message of its first failed side.
        errors = [s if e is None else e for e, s in zip(errors, solved.error)]
        gaps.append(solved.null_gap)
        resids.append(solved.residual)
    failed = np.array([e is not None for e in errors], dtype=bool)
    t[:, failed] = complex(np.nan, np.nan)
    dark[:, failed] = np.nan
    # NaN from a failed or unsolved side propagates into the efficiency.
    rows = [DiodeOperatingPoint(
                power=p, t_forward=t_f, t_reverse=t_r,
                efficiency=diode_efficiency(t_f, t_r),
                dark_population_forward=dark_f,
                dark_population_reverse=dark_r, error=e)
            for p, t_f, t_r, dark_f, dark_r, e
            in zip(powers.tolist(), *t.tolist(), *dark.tolist(), errors)]
    if info is not None:
        # One row per solved side, one column per power; keep the accepted.
        shape = (len(sides), len(powers))
        gaps = np.reshape(gaps, shape)[:, ~failed]
        resids = np.reshape(resids, shape)[:, ~failed]
        _gap_diagnostics(info, gaps, resids)
    return rows
