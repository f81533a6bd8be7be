"""Heterodyne noise statistics of a randomly blinking mirror.

A two-state scatterer toggles between transparent (X = 0) and reflecting
(X = 1); the demodulated quadratures of the returned field are

    I_n = Re(alpha) X_n + w_n,    Q_n = Im(alpha) X_n + v_n,

with w, v independent Gaussian detection noise of standard deviation sigma_w.
For occupation probability P the excess in-phase variance is

    <Delta I^2> = Re(alpha)^2 P (1 - P) + sigma_w^2,

while the out-of-phase quadrature stays at the noise floor for real alpha.
Sampling X independently per point is the default; an exponential dwell-time
mode correlates consecutive samples without changing the marginal statistics.
All randomness flows through counter-based Philox streams so results are
reproducible bit for bit from the seed.

``simulate_mirror`` returns a record's samples and is the sample-level
reference. The sweeps (``sweep_row``, ``variance_vs_power``) never build a
record: they draw each record into one reused float64 buffer and compute its
two variances there, in the same stream order and with the same pairwise sums
as ``iq_variance(simulate_mirror(m))``, whose values they equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SAMPLE_RATE = 100e6   # Hz, metadata attached to sample records


@dataclass(frozen=True)
class MirrorModel:
    """Blinking-mirror ensemble description.

    dwell_samples = 0 draws each X independently; a positive value gives the
    state an exponential holding time with that mean (in samples).
    """

    p_dark: float
    alpha: complex
    sigma_w: float
    n_samples: int
    seed: int
    dwell_samples: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_dark <= 1.0:
            raise ValueError(f"p_dark must lie in [0, 1], got {self.p_dark}")
        for name in ("alpha", "sigma_w", "dwell_samples"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_w < 0:
            raise ValueError("sigma_w must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.dwell_samples < 0:
            raise ValueError("dwell_samples must be nonnegative")


@dataclass(frozen=True)
class IQRecord:
    """Demodulated quadrature samples; sample_rate is bookkeeping only."""

    i_samples: np.ndarray
    q_samples: np.ndarray
    sample_rate: float = DEFAULT_SAMPLE_RATE


@dataclass(frozen=True)
class MirrorSweepRow:
    """Measured and analytic quadrature variances at one drive power."""

    power: float
    var_i_fwd: float
    var_i_rev: float
    var_q_fwd: float
    var_q_rev: float
    var_i_fwd_analytic: float
    var_i_rev_analytic: float


def _mirror_states(m: MirrorModel, rng: np.random.Generator,
                   buf: np.ndarray | None = None) -> np.ndarray:
    """Boolean states of one record; uniforms are drawn into buf if given."""
    if m.dwell_samples == 0.0:
        return rng.random(m.n_samples, out=buf) < m.p_dark
    # Each sample independently redraws the state with probability q chosen so
    # holding times are geometric with mean dwell_samples; the marginal stays
    # Bernoulli(p_dark).
    q = -np.expm1(-1.0 / m.dwell_samples)
    redraw = rng.random(m.n_samples, out=buf) < q
    redraw[0] = True
    fresh = rng.random(m.n_samples, out=buf) < m.p_dark
    idx = np.where(redraw, np.arange(m.n_samples), 0)
    np.maximum.accumulate(idx, out=idx)
    return fresh[idx]


def _rng(m: MirrorModel) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(m.seed)))


def simulate_mirror(m: MirrorModel) -> IQRecord:
    """Draw one quadrature record from the blinking-mirror model."""
    rng = _rng(m)
    x = _mirror_states(m, rng).astype(float)
    i_samples = np.real(m.alpha) * x + rng.normal(0.0, m.sigma_w, m.n_samples)
    q_samples = np.imag(m.alpha) * x + rng.normal(0.0, m.sigma_w, m.n_samples)
    return IQRecord(i_samples=i_samples, q_samples=q_samples)


def iq_variance(r: IQRecord) -> tuple[float, float]:
    """Unbiased sample variances (var_i, var_q) of a quadrature record."""
    if r.i_samples.size < 2 or r.q_samples.size < 2:
        raise ValueError("need at least two samples for an unbiased variance")
    return float(np.var(r.i_samples, ddof=1)), float(np.var(r.q_samples, ddof=1))


def _record_variances(m: MirrorModel, buf: np.ndarray) -> tuple[float, float]:
    """``iq_variance(simulate_mirror(m))``, bit for bit, computed in ``buf``.

    buf is a float64 array of n_samples that is overwritten. The draws come in
    simulate_mirror's order (states, then w, then v), sigma_w * z equals
    normal(0, sigma_w) up to the sign of a zero, and the variance repeats
    np.var(ddof=1)'s steps: pairwise mean, subtract, square, pairwise sum.
    """
    n = m.n_samples
    if n < 2:
        raise ValueError("need at least two samples for an unbiased variance")
    rng = _rng(m)
    x = _mirror_states(m, rng, buf)
    variances = []
    for amp in (np.real(m.alpha), np.imag(m.alpha)):
        rng.standard_normal(out=buf)
        buf *= m.sigma_w
        if amp != 0:
            buf += amp * x
        buf -= buf.mean()
        np.square(buf, out=buf)
        variances.append(float(buf.sum() / (n - 1)))
    return variances[0], variances[1]


def analytic_iq_variance(p_dark: float, alpha: complex,
                         sigma_w: float) -> tuple[float, float]:
    """Population-level quadrature variances of the blinking-mirror model."""
    bernoulli = p_dark * (1.0 - p_dark)
    return (np.real(alpha) ** 2 * bernoulli + sigma_w ** 2,
            np.imag(alpha) ** 2 * bernoulli + sigma_w ** 2)


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n independent integer child seeds derived from one master seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def sweep_row(power: float, p_dark_fwd: float, p_dark_rev: float,
              sigma_w: float, n_samples: int, seed_fwd: int, seed_rev: int,
              dwell_samples: float = 0.0) -> MirrorSweepRow:
    """One power point of the variance sweep, with explicit per-direction seeds."""
    return _sweep_row(power, p_dark_fwd, p_dark_rev, sigma_w, n_samples,
                      seed_fwd, seed_rev, dwell_samples, _buffer(n_samples))


def _buffer(n_samples: int) -> np.ndarray:
    # A nonpositive n_samples gets an empty buffer; MirrorModel then rejects
    # it with its own message before anything is drawn.
    return np.empty(max(n_samples, 0))


def _sweep_row(power: float, p_dark_fwd: float, p_dark_rev: float,
               sigma_w: float, n_samples: int, seed_fwd: int, seed_rev: int,
               dwell_samples: float, buf: np.ndarray) -> MirrorSweepRow:
    """sweep_row, drawing both records into buf."""
    alpha = np.sqrt(power)
    m_f, m_r = (MirrorModel(p_dark=p, alpha=alpha, sigma_w=sigma_w,
                            n_samples=n_samples, seed=seed,
                            dwell_samples=dwell_samples)
                for p, seed in ((p_dark_fwd, seed_fwd), (p_dark_rev, seed_rev)))
    vi_f, vq_f = _record_variances(m_f, buf)
    vi_r, vq_r = _record_variances(m_r, buf)
    return MirrorSweepRow(
        power=float(power),
        var_i_fwd=vi_f, var_i_rev=vi_r, var_q_fwd=vq_f, var_q_rev=vq_r,
        var_i_fwd_analytic=analytic_iq_variance(p_dark_fwd, alpha, sigma_w)[0],
        var_i_rev_analytic=analytic_iq_variance(p_dark_rev, alpha, sigma_w)[0])


def variance_vs_power(p_dark_fwd: float, p_dark_rev: float, powers,
                      sigma_w: float, seed: int, n_samples: int = 2 ** 18,
                      dwell_samples: float = 0.0) -> list[MirrorSweepRow]:
    """Quadrature-variance sweep over drive power for both drive directions.

    The field amplitude scales as alpha = sqrt(power); each (power, direction)
    pair gets an independent child stream spawned from the seed, so per-point
    results do not depend on evaluation order. Every record is drawn into one
    float64 buffer allocated for the whole sweep and its variances are
    computed there in place; the rows equal those rebuilt from
    ``simulate_mirror`` and ``iq_variance``, the sample-level reference, bit
    for bit.
    """
    powers = np.asarray(powers, dtype=float)
    if not np.all(np.isfinite(powers)):
        raise ValueError("powers must be finite")
    if np.any(powers < 0):
        raise ValueError("powers must be nonnegative")
    seeds = spawn_seeds(seed, 2 * powers.size)
    buf = _buffer(n_samples)
    return [_sweep_row(p, p_dark_fwd, p_dark_rev, sigma_w, n_samples,
                       seeds[2 * k], seeds[2 * k + 1], dwell_samples, buf)
            for k, p in enumerate(powers)]
