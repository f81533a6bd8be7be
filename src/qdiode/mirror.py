"""Heterodyne noise statistics of a randomly blinking mirror.

A two-state scatterer toggles between transparent (X = 0) and reflecting
(X = 1); the demodulated quadratures of the returned field are

    I_n = Re(alpha) X_n + w_n,    Q_n = Im(alpha) X_n + v_n,

with w, v independent Gaussian detection noise of standard deviation sigma_w.
For occupation probability P the excess in-phase variance is

    <Delta I^2> = Re(alpha)^2 P (1 - P) + sigma_w^2,

while the out-of-phase quadrature stays at the noise floor for real alpha.
The variance does not depend on how long the mirror stays in a state, so
each X is drawn independently. All randomness flows through counter-based
Philox streams so results are reproducible bit for bit from the seed.

``simulate_mirror`` returns a record's samples and is the sample-level
reference. The sweep, ``variance_vs_power``, never builds a record: it draws
each record into one float64 buffer of its own and computes its two
variances there, in the same stream order and with the same pairwise sums
as ``iq_variance(simulate_mirror(m))``, whose values it equals bit for bit.

The records of a sweep are independent, and most of a record's time goes to
numpy fills that release the interpreter lock, so the sweep shares them out
on the package's one worker map, ``_map_records``: one thread per CPU the
process may run on, or inline with one, capped at a scratch-memory budget
since each worker holds one record's buffer at a time. Each worker binds
itself to its own CPU: where the scheduler does not balance load (a cpuset
with load balancing switched off), a new thread may stay on its creator's
CPU, and unbound workers then share one core. Only the workers' own masks
change, never the calling thread's; where binding is unavailable or refused
the workers run unbound. A record's values depend only on its own seed, so
the outputs do not depend on the number of CPUs.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class MirrorModel:
    """Blinking-mirror ensemble: each of n_samples states is reflecting
    with probability p_dark, independently of the others."""

    p_dark: float
    alpha: complex
    sigma_w: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_dark <= 1.0:
            raise ValueError(f"p_dark must lie in [0, 1], got {self.p_dark}")
        for name in ("alpha", "sigma_w"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_w < 0:
            raise ValueError("sigma_w must be nonnegative")
        if (isinstance(self.n_samples, bool)
                or not isinstance(self.n_samples, (int, np.integer))):
            raise ValueError(
                f"n_samples must be an int, got {self.n_samples!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


class IQRecord(NamedTuple):
    """Demodulated in-phase and out-of-phase quadrature samples."""

    i_samples: np.ndarray
    q_samples: np.ndarray


class MirrorSweepRow(NamedTuple):
    """Measured and analytic quadrature variances at one drive power."""

    power: float
    var_i_fwd: float
    var_i_rev: float
    var_q_fwd: float
    var_q_rev: float
    var_i_fwd_analytic: float
    var_i_rev_analytic: float


def _rng(m: MirrorModel) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(m.seed)))


def simulate_mirror(m: MirrorModel) -> IQRecord:
    """Draw one quadrature record from the blinking-mirror model."""
    rng = _rng(m)
    x = (rng.random(m.n_samples) < m.p_dark).astype(float)
    i_samples = np.real(m.alpha) * x + rng.normal(0.0, m.sigma_w, m.n_samples)
    q_samples = np.imag(m.alpha) * x + rng.normal(0.0, m.sigma_w, m.n_samples)
    return IQRecord(i_samples=i_samples, q_samples=q_samples)


def _check_two_samples(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two samples for an unbiased variance")


def iq_variance(r: IQRecord) -> tuple[float, float]:
    """Unbiased sample variances (var_i, var_q) of a quadrature record."""
    _check_two_samples(min(r.i_samples.size, r.q_samples.size))
    return float(np.var(r.i_samples, ddof=1)), float(np.var(r.q_samples, ddof=1))


def _record_variances(m: MirrorModel) -> tuple[float, float]:
    """``iq_variance(simulate_mirror(m))``, bit for bit, computed in place.

    One float64 buffer of n_samples holds every draw in turn. The draws come
    in simulate_mirror's order (states, then w, then v), sigma_w * z equals
    normal(0, sigma_w) up to the sign of a zero, and the variance repeats
    np.var(ddof=1)'s steps: pairwise mean, subtract, square, pairwise sum.
    A variance beyond the float range comes out inf or NaN without a
    RuntimeWarning; numpy's error state is the calling thread's, so it is
    set here, in the worker that draws the record.
    """
    n = m.n_samples
    _check_two_samples(n)
    rng = _rng(m)
    buf = np.empty(n)
    x = rng.random(n, out=buf) < m.p_dark
    variances = []
    with np.errstate(over="ignore", invalid="ignore"):
        for amp in (np.real(m.alpha), np.imag(m.alpha)):
            rng.standard_normal(out=buf)
            buf *= m.sigma_w
            if amp != 0:
                # Adds amp where X = 1 and leaves the rest, as buf += amp * x
                # does up to the sign of a zero, without an n-sample temporary.
                np.add(buf, amp, out=buf, where=x)
            buf -= buf.mean()
            np.square(buf, out=buf)
            variances.append(float(buf.sum() / (n - 1)))
    return variances[0], variances[1]


# One worker's scratch bytes per record sample: its record's float64 buffer
# and its bool states.
_WORKER_BYTES_PER_SAMPLE = 9
# The workers' scratch together stays under this (2^18 samples: 113 workers).
_SCRATCH_BUDGET = 2 ** 28


def _map_records(models: list[MirrorModel],
                 max_threads: int) -> list[tuple[float, float]]:
    """``[_record_variances(m) for m in models]``, in order, on bound workers.

    There are k workers, the least of the number of CPUs the process may run
    on, len(models) and max_threads. Worker w, a thread named
    f"qdiode-mirror-{w}", binds itself to the w-th allowed CPU and computes
    records w, w + k, w + 2k, ...; the calling thread only starts and joins
    them. With one worker the calling thread computes every record, in
    order. A worker stops at its first exception, which takes the place of
    its record; once every worker is joined, the first exception in record
    order is raised. An interrupt of the join stops every worker before its
    next record.
    """
    allowed = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
               else range(os.cpu_count() or 1))
    cpus = sorted(allowed)[:min(len(models), max_threads)]
    results: list = [None] * len(models)
    stop = threading.Event()

    def work(w: int) -> None:
        k = w
        try:
            for k in range(w, len(models), len(cpus)):
                if stop.is_set():
                    return
                results[k] = _record_variances(models[k])
        except Exception as exc:  # raised by the caller after the joins
            results[k] = exc

    def bound_work(w: int) -> None:
        try:
            os.sched_setaffinity(0, {cpus[w]})   # this thread's mask only
        except (AttributeError, OSError):
            pass                                 # run unbound
        work(w)

    if len(cpus) == 1:
        work(0)
    else:
        workers = [threading.Thread(target=bound_work, args=(w,),
                                    name=f"qdiode-mirror-{w}")
                   for w in range(len(cpus))]
        for t in workers:
            t.start()
        try:
            for t in workers:
                t.join()
        except BaseException:
            stop.set()
            for t in workers:
                t.join()
            raise
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def analytic_iq_variance(p_dark: float, alpha: complex,
                         sigma_w: float) -> tuple[float, float]:
    """Population-level quadrature variances of the blinking-mirror model."""
    bernoulli = p_dark * (1.0 - p_dark)
    return (np.real(alpha) ** 2 * bernoulli + sigma_w ** 2,
            np.imag(alpha) ** 2 * bernoulli + sigma_w ** 2)


def _spawn_seeds(seed: int, n: int) -> list[int]:
    """n independent integer child seeds derived from one master seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def variance_vs_power(p_dark_fwd: float, p_dark_rev: float, powers,
                      sigma_w: float, seed: int,
                      n_samples: int = 2 ** 18) -> list[MirrorSweepRow]:
    """Quadrature-variance sweep over drive power for both drive directions.

    The field amplitude scales as alpha = sqrt(power); each (power, direction)
    pair gets an independent child stream spawned from the seed. The streams
    of the k-th power depend only on the seed and k, so a row depends on its
    own power and place alone, not on the other powers or on evaluation
    order. The powers and every record's model are checked before any record
    is drawn. The 2 * len(powers) records are then shared out among worker
    threads, one per allowed CPU and each bound to its CPU, or computed
    inline by one (see the module docstring); the workers' scratch stays
    under _SCRATCH_BUDGET. Each record is drawn into a float64 buffer of its
    own and its variances are computed there in place; the rows equal those
    rebuilt from ``simulate_mirror`` and ``iq_variance``, the sample-level
    reference, bit for bit, whatever the number of CPUs. A sample variance
    that is not finite raises ValueError naming its power.
    """
    powers = np.asarray(powers, dtype=float)
    if not np.all(np.isfinite(powers)):
        raise ValueError("powers must be finite")
    if np.any(powers < 0):
        raise ValueError("powers must be nonnegative")
    seeds = _spawn_seeds(seed, 2 * powers.size)
    alphas = [np.sqrt(p) for p in powers]
    models = [MirrorModel(p_dark=p_dark, alpha=alpha, sigma_w=sigma_w,
                          n_samples=n_samples, seed=seeds[2 * k + side])
              for k, alpha in enumerate(alphas)
              for side, p_dark in enumerate((p_dark_fwd, p_dark_rev))]
    _check_two_samples(n_samples)
    workers = max(1, _SCRATCH_BUDGET // (_WORKER_BYTES_PER_SAMPLE * n_samples))
    variances = _map_records(models, workers)
    # One row per power: var_i and var_q forward, then var_i and var_q reverse.
    bad = ~np.isfinite(np.reshape(variances, (-1, 4))).all(axis=1)
    if bad.any():
        raise ValueError(
            f"sample variance at power {powers[bad][0]} is not finite")
    return [MirrorSweepRow(
                power=float(p),
                var_i_fwd=vi_f, var_i_rev=vi_r, var_q_fwd=vq_f, var_q_rev=vq_r,
                var_i_fwd_analytic=float(analytic_iq_variance(
                    p_dark_fwd, alpha, sigma_w)[0]),
                var_i_rev_analytic=float(analytic_iq_variance(
                    p_dark_rev, alpha, sigma_w)[0]))
            for p, alpha, (vi_f, vq_f), (vi_r, vq_r)
            in zip(powers, alphas, variances[0::2], variances[1::2])]
