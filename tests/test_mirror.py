"""Blinking-mirror heterodyne statistics: determinism, moments, sweeps.

The decisive oracle is the closed-form Bernoulli-plus-Gaussian variance;
sampled variances must sit within three standard errors of it, with the
standard error computed from the exact fourth central moment rather than
from the samples themselves.

The sweep never builds a sample record: it computes each record's variances
in a buffer of its own, on worker threads bound to the allowed CPUs.
``iq_variance(simulate_mirror(m))`` is the reference it must equal bit for
bit, and the rows must not depend on the CPUs the process may use.
"""

import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiode import _workers, mirror
from qdiode.mirror import (
    IQRecord,
    MirrorModel,
    _mirror_states,
    _record_variances,
    _rng,
    _spawn_seeds,
    analytic_iq_variance,
    iq_variance,
    simulate_mirror,
    variance_vs_power,
)


def variance_standard_error(p, a, sigma_w, n):
    """Exact standard error of the sample variance of I = a X + w."""
    bern = p * (1.0 - p)
    mu4 = (a ** 4 * bern * ((1.0 - p) ** 3 + p ** 3)
           + 6.0 * a ** 2 * bern * sigma_w ** 2 + 3.0 * sigma_w ** 4)
    var = a ** 2 * bern + sigma_w ** 2
    return np.sqrt((mu4 - var ** 2) / n)


# ----------------------------------------------------------------------------
#                      Determinism and trivial limits
# ----------------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_bit_identical(self):
        m = MirrorModel(p_dark=0.4, alpha=1.3 + 0.6j, sigma_w=0.2,
                        n_samples=5000, seed=42)
        r1 = simulate_mirror(m)
        r2 = simulate_mirror(m)
        np.testing.assert_array_equal(r1.i_samples, r2.i_samples)
        np.testing.assert_array_equal(r1.q_samples, r2.q_samples)

    def test_different_seeds_differ(self):
        kwargs = dict(p_dark=0.4, alpha=1.3, sigma_w=0.2, n_samples=5000)
        r1 = simulate_mirror(MirrorModel(seed=1, **kwargs))
        r2 = simulate_mirror(MirrorModel(seed=2, **kwargs))
        assert not np.array_equal(r1.i_samples, r2.i_samples)

    def test_record_length(self):
        m = MirrorModel(p_dark=0.5, alpha=1.0, sigma_w=0.1,
                        n_samples=317, seed=0)
        r = simulate_mirror(m)
        assert r.i_samples.size == 317
        assert r.q_samples.size == 317

    def test_spawned_seeds_distinct_and_reproducible(self):
        seeds = _spawn_seeds(123, 16)
        assert len(set(seeds)) == 16
        assert seeds == _spawn_seeds(123, 16)
        assert seeds != _spawn_seeds(124, 16)


class TestTrivialLimits:
    def test_never_reflecting_no_noise_is_silent(self):
        m = MirrorModel(p_dark=0.0, alpha=2.0 + 1.0j, sigma_w=0.0,
                        n_samples=1000, seed=5)
        r = simulate_mirror(m)
        np.testing.assert_array_equal(r.i_samples, np.zeros(1000))
        np.testing.assert_array_equal(r.q_samples, np.zeros(1000))

    def test_always_reflecting_no_noise_is_constant(self):
        m = MirrorModel(p_dark=1.0, alpha=2.0 + 1.0j, sigma_w=0.0,
                        n_samples=1000, seed=5)
        r = simulate_mirror(m)
        np.testing.assert_array_equal(r.i_samples, np.full(1000, 2.0))
        np.testing.assert_array_equal(r.q_samples, np.full(1000, 1.0))

    def test_noise_free_samples_are_two_valued(self):
        m = MirrorModel(p_dark=0.5, alpha=1.7, sigma_w=0.0,
                        n_samples=4000, seed=9)
        r = simulate_mirror(m)
        values = np.unique(r.i_samples)
        np.testing.assert_array_equal(values, [0.0, 1.7])

    def test_pure_noise_variance(self):
        m = MirrorModel(p_dark=0.0, alpha=3.0, sigma_w=0.5,
                        n_samples=2 ** 16, seed=11)
        vi, vq = iq_variance(simulate_mirror(m))
        se = 0.25 * np.sqrt(2.0 / (2 ** 16 - 1))
        assert abs(vi - 0.25) < 3.0 * se
        assert abs(vq - 0.25) < 3.0 * se


# ----------------------------------------------------------------------------
#                       Variance against the closed form
# ----------------------------------------------------------------------------

class TestVarianceOracle:
    def test_in_phase_variance(self):
        p, a, sw, n = 0.37, 2.2, 0.3, 2 ** 18
        m = MirrorModel(p_dark=p, alpha=a, sigma_w=sw, n_samples=n, seed=77)
        vi, _ = iq_variance(simulate_mirror(m))
        expected, _ = analytic_iq_variance(p, a, sw)
        assert abs(vi - expected) < 3.0 * variance_standard_error(p, a, sw, n)

    def test_quadrature_split_for_complex_amplitude(self):
        p, sw, n = 0.5, 0.1, 2 ** 18
        alpha = 1.5 + 0.4j
        m = MirrorModel(p_dark=p, alpha=alpha, sigma_w=sw, n_samples=n, seed=3)
        vi, vq = iq_variance(simulate_mirror(m))
        ei, eq = analytic_iq_variance(p, alpha, sw)
        assert abs(vi - ei) < 3.0 * variance_standard_error(p, 1.5, sw, n)
        assert abs(vq - eq) < 3.0 * variance_standard_error(p, 0.4, sw, n)

    def test_analytic_closed_form(self):
        vi, vq = analytic_iq_variance(0.25, 2.0 + 1.0j, 0.3)
        np.testing.assert_allclose(vi, 4.0 * 0.25 * 0.75 + 0.09)
        np.testing.assert_allclose(vq, 1.0 * 0.25 * 0.75 + 0.09)

    def test_variance_peaks_at_half_occupation(self):
        rows = [analytic_iq_variance(p, 1.0, 0.0)[0]
                for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert np.argmax(rows) == 2


class TestDwellMode:
    def test_marginal_occupation_preserved(self):
        p, n, dwell = 0.3, 2 ** 18, 25.0
        m = MirrorModel(p_dark=p, alpha=1.0, sigma_w=0.0, n_samples=n,
                        seed=21, dwell_samples=dwell)
        r = simulate_mirror(m)
        occupation = np.mean(r.i_samples)
        # Correlated samples inflate the standard error by roughly the
        # square root of twice the dwell time.
        se = np.sqrt(p * (1.0 - p) / n) * np.sqrt(2.0 * dwell)
        assert abs(occupation - p) < 4.0 * se

    def test_dwell_correlates_consecutive_samples(self):
        kwargs = dict(p_dark=0.5, alpha=1.0, sigma_w=0.0, n_samples=2 ** 16,
                      seed=33)
        iid = simulate_mirror(MirrorModel(dwell_samples=0.0, **kwargs)).i_samples
        slow = simulate_mirror(MirrorModel(dwell_samples=50.0, **kwargs)).i_samples

        def lag_one(x):
            d = x - x.mean()
            return np.mean(d[1:] * d[:-1]) / np.mean(d * d)

        assert abs(lag_one(iid)) < 0.02
        assert lag_one(slow) > 0.9

    def test_dwell_variance_matches_analytic(self):
        p, a, n = 0.4, 1.8, 2 ** 18
        m = MirrorModel(p_dark=p, alpha=a, sigma_w=0.0, n_samples=n,
                        seed=55, dwell_samples=10.0)
        vi, _ = iq_variance(simulate_mirror(m))
        expected, _ = analytic_iq_variance(p, a, 0.0)
        se = variance_standard_error(p, a, 0.0, n) * np.sqrt(2.0 * 10.0)
        assert abs(vi - expected) < 4.0 * se

    @pytest.mark.parametrize("n", [2, 3, 65537])
    @pytest.mark.parametrize("dwell", [0.3, 4.0, 25.0])
    def test_states_equal_the_int64_index_construction(self, dwell, n):
        # The state index is built in the smallest unsigned dtype that holds
        # n - 1 (uint8 for n = 2 and 3, uint32 for 65537); the states must
        # be those of an int64 index.
        m = MirrorModel(p_dark=0.4, alpha=1.0, sigma_w=0.0, n_samples=n,
                        seed=17, dwell_samples=dwell)
        rng = _rng(m)
        q = -np.expm1(-1.0 / m.dwell_samples)
        redraw = rng.random(n) < q
        redraw[0] = True
        fresh = rng.random(n) < m.p_dark
        idx = np.where(redraw, np.arange(n, dtype=np.int64), 0)
        np.maximum.accumulate(idx, out=idx)
        np.testing.assert_array_equal(_mirror_states(m, _rng(m)), fresh[idx])
        np.testing.assert_array_equal(
            _mirror_states(m, _rng(m), np.empty(n)), fresh[idx])


# ----------------------------------------------------------------------------
#                         Power sweeps and validation
# ----------------------------------------------------------------------------

class TestVarianceVsPower:
    def test_slope_and_flat_quadrature(self):
        p_fwd, p_rev, sw = 0.6, 0.05, 0.05
        powers = np.linspace(0.5, 4.0, 6)
        rows = variance_vs_power(p_fwd, p_rev, powers, sigma_w=sw, seed=101,
                                 n_samples=2 ** 16)
        slope_fwd = np.polyfit(powers, [r.var_i_fwd for r in rows], 1)[0]
        slope_rev = np.polyfit(powers, [r.var_i_rev for r in rows], 1)[0]
        np.testing.assert_allclose(slope_fwd, p_fwd * (1.0 - p_fwd), rtol=0.10)
        np.testing.assert_allclose(slope_rev, p_rev * (1.0 - p_rev), rtol=0.10)
        assert slope_fwd > slope_rev
        # alpha is real, so the out-of-phase quadrature stays at the floor.
        se_q = sw ** 2 * np.sqrt(2.0 / (2 ** 16 - 1))
        for r in rows:
            assert abs(r.var_q_fwd - sw ** 2) < 4.0 * se_q
            assert abs(r.var_q_rev - sw ** 2) < 4.0 * se_q

    def test_rows_carry_analytic_reference(self):
        rows = variance_vs_power(0.5, 0.1, [1.0, 2.0], sigma_w=0.2, seed=7,
                                 n_samples=256)
        for r in rows:
            np.testing.assert_allclose(
                r.var_i_fwd_analytic,
                analytic_iq_variance(0.5, np.sqrt(r.power), 0.2)[0])

    def test_row_fields_are_python_floats(self):
        # np.sqrt of a numpy power made the analytic fields np.float64.
        rows = variance_vs_power(0.5, 0.1, [0.0, 2.0], sigma_w=0.2, seed=7,
                                 n_samples=256)
        for r in rows:
            assert [type(v) for v in r] == [float] * len(r), r

    def test_sweep_is_order_independent(self):
        # Child streams are spawned per point, so the point at 3.0 computed
        # beside another power, with the same child seeds, reproduces the
        # sweep's row exactly.
        powers = [1.0, 3.0]
        rows = variance_vs_power(0.4, 0.1, powers, sigma_w=0.1, seed=88,
                                 n_samples=4096)
        alone = variance_vs_power(0.4, 0.1, [0.0, 3.0], sigma_w=0.1, seed=88,
                                  n_samples=4096)[1]
        np.testing.assert_array_equal(rows[1].var_i_fwd, alone.var_i_fwd)
        np.testing.assert_array_equal(rows[1].var_i_rev, alone.var_i_rev)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            variance_vs_power(0.5, 0.1, [-1.0, 1.0], sigma_w=0.1, seed=1,
                              n_samples=16)

    @pytest.mark.parametrize("power, message", [
        (-1.0, "powers must be nonnegative"),
        (np.nan, "powers must be finite"), (np.inf, "powers must be finite")])
    def test_sweep_row_checks_its_power(self, power, message):
        with pytest.raises(ValueError, match=message):
            variance_vs_power(0.5, 0.1, [power], sigma_w=0.1, seed=1,
                              n_samples=100)


class TestValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_occupation_out_of_range(self, bad):
        with pytest.raises(ValueError, match="p_dark"):
            MirrorModel(p_dark=bad, alpha=1.0, sigma_w=0.1, n_samples=10,
                        seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="sigma_w"):
            MirrorModel(p_dark=0.5, alpha=1.0, sigma_w=-0.1, n_samples=10,
                        seed=0)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            MirrorModel(p_dark=0.5, alpha=1.0, sigma_w=0.1, n_samples=0,
                        seed=0)

    def test_negative_dwell_rejected(self):
        with pytest.raises(ValueError, match="dwell"):
            MirrorModel(p_dark=0.5, alpha=1.0, sigma_w=0.1, n_samples=10,
                        seed=0, dwell_samples=-1.0)

    def test_variance_needs_two_samples(self):
        r = IQRecord(i_samples=np.array([1.0]), q_samples=np.array([1.0]))
        with pytest.raises(ValueError, match="two samples"):
            iq_variance(r)


# ----------------------------------------------------------------------------
#              In-place record variances against the sample route
# ----------------------------------------------------------------------------

def reference_variances(m):
    return iq_variance(simulate_mirror(m))


EMPTY = np.empty


def nan_filled(*args, **kwargs):
    """np.empty whose memory is dirty: every byte 0xFF, a NaN in a float."""
    buf = EMPTY(*args, **kwargs)
    buf.view(np.uint8).fill(0xFF)
    return buf


def in_place_variances(m):
    # A dirty buffer: nothing of its old contents may leak into the result.
    with mock.patch.object(np, "empty", nan_filled):
        return _record_variances(m)


class TestRecordVariances:
    @pytest.mark.parametrize("kwargs", [
        dict(p_dark=0.37, alpha=2.2, sigma_w=0.3, n_samples=4096),
        dict(p_dark=0.4, alpha=1.8, sigma_w=0.2, n_samples=4096,
             dwell_samples=10.0),
        dict(p_dark=0.5, alpha=1.0, sigma_w=0.1, n_samples=4096,
             dwell_samples=0.3),
        dict(p_dark=0.6, alpha=-1.3 + 0.7j, sigma_w=0.15, n_samples=3001),
        dict(p_dark=0.6, alpha=-1.3 - 0.7j, sigma_w=0.15, n_samples=3001,
             dwell_samples=4.0),
        dict(p_dark=0.5, alpha=0.0, sigma_w=0.2, n_samples=1000),
        dict(p_dark=0.5, alpha=-0.5j, sigma_w=0.2, n_samples=1000),
        dict(p_dark=0.3, alpha=1.5 + 0.4j, sigma_w=0.0, n_samples=1000),
        dict(p_dark=0.3, alpha=0.0, sigma_w=0.0, n_samples=1000),
        dict(p_dark=0.0, alpha=-2.0, sigma_w=0.0, n_samples=1000),
        dict(p_dark=1.0, alpha=2.0 + 1.0j, sigma_w=0.1, n_samples=1000),
        dict(p_dark=0.5, alpha=1.0 + 1.0j, sigma_w=0.1, n_samples=2),
        dict(p_dark=0.5, alpha=1.0, sigma_w=0.0, n_samples=2,
             dwell_samples=1.0),
        dict(p_dark=0.45, alpha=1.1, sigma_w=0.1, n_samples=2 ** 18),
    ])
    def test_equals_the_sample_route(self, kwargs):
        m = MirrorModel(seed=2024, **kwargs)
        assert in_place_variances(m) == reference_variances(m)

    def test_single_sample_rejected(self):
        m = MirrorModel(p_dark=0.5, alpha=1.0, sigma_w=0.1, n_samples=1,
                        seed=0)
        with pytest.raises(ValueError, match="two samples"):
            in_place_variances(m)
        with pytest.raises(ValueError, match="two samples"):
            variance_vs_power(0.5, 0.1, [1.0], sigma_w=0.1, seed=1,
                              n_samples=1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(p_dark=st.floats(0.0, 1.0),
           re=st.floats(-5.0, 5.0), im=st.floats(-5.0, 5.0),
           zero_part=st.sampled_from(["none", "re", "im", "both"]),
           sigma_w=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           n=st.integers(2, 3000),
           dwell=st.one_of(st.just(0.0), st.floats(0.01, 500.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_sample_route_on_drawn_models(
            self, p_dark, re, im, zero_part, sigma_w, n, dwell, seed):
        alpha = complex(0.0 if zero_part in ("re", "both") else re,
                        0.0 if zero_part in ("im", "both") else im)
        m = MirrorModel(p_dark=p_dark, alpha=alpha, sigma_w=sigma_w,
                        n_samples=n, seed=seed, dwell_samples=dwell)
        assert in_place_variances(m) == reference_variances(m)

    @pytest.mark.parametrize("dwell", [0.0, 7.5])
    def test_sweep_rows_equal_rows_from_records(self, dwell):
        p_fwd, p_rev, sw, seed, n = 0.55, 0.08, 0.12, 314, 5000
        powers = [0.0, 0.25, 1.0, 2.5]
        rows = variance_vs_power(p_fwd, p_rev, powers, sigma_w=sw, seed=seed,
                                 n_samples=n, dwell_samples=dwell)
        seeds = _spawn_seeds(seed, 2 * len(powers))
        for k, (p, row) in enumerate(zip(powers, rows)):
            fwd, rev = (reference_variances(MirrorModel(
                p_dark=pd, alpha=np.sqrt(p), sigma_w=sw, n_samples=n,
                seed=s, dwell_samples=dwell))
                for pd, s in ((p_fwd, seeds[2 * k]),
                              (p_rev, seeds[2 * k + 1])))
            assert row.power == p
            assert (row.var_i_fwd, row.var_q_fwd) == fwd
            assert (row.var_i_rev, row.var_q_rev) == rev
            # The sweep of the powers up to this one ends with the same row.
            assert variance_vs_power(
                p_fwd, p_rev, powers[:k + 1], sigma_w=sw, seed=seed,
                n_samples=n, dwell_samples=dwell)[-1] == row


# ----------------------------------------------------------------------------
#                       Records on bound worker threads
# ----------------------------------------------------------------------------

SWEEP = dict(p_dark_fwd=0.55, p_dark_rev=0.08,
             powers=[0.0, 0.25, 1.0, 2.5, 4.0], sigma_w=0.12, seed=314,
             n_samples=5000)


def record_index(m):
    seeds = _spawn_seeds(SWEEP["seed"], 2 * len(SWEEP["powers"]))
    return seeds.index(m.seed)


def spy_records(monkeypatch, fail=()):
    """Wrap _record_variances to log (record, thread, mask) of every call
    and to raise RuntimeError('record k') for each record k in fail."""
    calls = []
    inner = mirror._record_variances

    def spy(m):
        k = record_index(m)
        mask = (frozenset(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
        calls.append((k, threading.current_thread(), mask))
        if k in fail:
            raise RuntimeError(f"record {k}")
        return inner(m)

    monkeypatch.setattr(mirror, "_record_variances", spy)
    return calls


def allowed_cpus():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("os.sched_getaffinity is not available")
    return os.sched_getaffinity(0)


def allow_cpus(monkeypatch, n):
    """Report n allowed CPUs; binding to any CPU that does not exist fails
    with OSError, so those workers run unbound."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestWorkers:
    @pytest.mark.parametrize("dwell", [0.0, 7.5])
    def test_rows_equal_with_one_cpu_and_with_the_real_mask(
            self, monkeypatch, dwell):
        real = variance_vs_power(**SWEEP, dwell_samples=dwell)
        allow_cpus(monkeypatch, 1)
        calls = spy_records(monkeypatch)
        assert variance_vs_power(**SWEEP, dwell_samples=dwell) == real
        # One allowed CPU: every record is computed inline, in order.
        assert [k for k, _, _ in calls] == list(range(10))
        assert {t for _, t, _ in calls} == {threading.current_thread()}

    @pytest.mark.parametrize("binding", ["refused", "missing"])
    def test_more_unbound_workers_than_cores(self, monkeypatch, binding):
        inline = variance_vs_power(**SWEEP)
        allow_cpus(monkeypatch, 8)
        if binding == "missing":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            def refuse(pid, mask):
                raise OSError(22, "Invalid argument")
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        calls = spy_records(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = variance_vs_power(**SWEEP)
        finally:
            sys.setswitchinterval(interval)
        assert rows == inline
        assert sorted(k for k, _, _ in calls) == list(range(10))
        assert len({t for _, t, _ in calls}) == 8

    def test_workers_are_bound_to_distinct_cpus(self, monkeypatch):
        cpus = allowed_cpus()
        if len(cpus) < 2:
            pytest.skip("needs two allowed CPUs")
        calls = spy_records(monkeypatch)
        variance_vs_power(**SWEEP)
        masks = {t: mask for _, t, mask in calls}
        assert threading.current_thread() not in masks
        assert all(len(mask) == 1 for mask in masks.values())
        assert len(set(masks.values())) == len(masks) == min(len(cpus), 10)
        assert set().union(*masks.values()) <= cpus

    def test_calling_thread_keeps_its_mask(self):
        before = allowed_cpus()
        variance_vs_power(**SWEEP)
        variance_vs_power(0.5, 0.1, [1.0], sigma_w=0.1, seed=1,
                          n_samples=4096)
        assert os.sched_getaffinity(0) == before

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        start = threading.active_count()
        calls = spy_records(monkeypatch, fail=(3, 4))
        # Records 3 and 4 fail on different workers; the caller raises the
        # first in record order once both workers are joined.
        with pytest.raises(RuntimeError, match="^record 3$"):
            variance_vs_power(**SWEEP)
        assert threading.active_count() == start
        threads = {k: t for k, t, _ in calls}
        assert threading.current_thread() not in threads.values()
        assert threads[3] is not threads[4]
        # Each worker stopped at its failure.
        assert set(threads) == {0, 1, 2, 3, 4}

    def test_buffer_allocation_failure_reaches_the_caller(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        start = threading.active_count()
        calls = spy_records(monkeypatch)
        empty = np.empty

        def fail_in_worker_1(*args, **kwargs):
            if threading.current_thread().name == "qdiode-mirror-1":
                raise MemoryError("no buffer for worker 1")
            return empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", fail_in_worker_1)
        with pytest.raises(MemoryError, match="^no buffer for worker 1$"):
            variance_vs_power(**SWEEP)
        assert threading.active_count() == start
        # Worker 1 (records 1, 4, 7) stopped at its first record, whose
        # buffer it could not allocate; the others ran to the end.
        assert sorted(k for k, _, _ in calls) == [0, 1, 2, 3, 5, 6, 8, 9]

    def test_interrupted_join_stops_the_workers(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        start = threading.active_count()
        models = [MirrorModel(p_dark=0.5, alpha=1.0, sigma_w=0.1,
                              n_samples=16, seed=s) for s in range(200)]
        drawn = []

        def slow(m):
            drawn.append(m.seed)
            time.sleep(0.01)
            return (0.0, 0.0)

        monkeypatch.setattr(mirror, "_record_variances", slow)
        join = threading.Thread.join
        interrupts = []

        def interrupted_join(self, *args, **kwargs):
            if not interrupts:
                interrupts.append(self.name)
                raise KeyboardInterrupt
            return join(self, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            _workers.bound_map(mirror._record_variances, models, len(models),
                               "qdiode-mirror")
        assert threading.active_count() == start
        # Each worker finished at most the record it was drawing, far from
        # the 100 records each would draw in 1 s.
        assert len(drawn) < 20

    @pytest.mark.parametrize("budget_records, workers", [(0, 1), (1, 1),
                                                         (3, 3), (50, 8)])
    def test_scratch_budget_caps_the_workers(self, monkeypatch,
                                             budget_records, workers):
        allow_cpus(monkeypatch, 8)
        per_worker = mirror._WORKER_BYTES_PER_SAMPLE * SWEEP["n_samples"]
        monkeypatch.setattr(mirror, "_SCRATCH_BUDGET",
                            budget_records * per_worker + per_worker // 2)
        inline = variance_vs_power(**SWEEP)
        calls = spy_records(monkeypatch)
        assert variance_vs_power(**SWEEP) == inline
        assert len({t for _, t, _ in calls}) == workers
        if workers == 1:
            assert {t for _, t, _ in calls} == {threading.current_thread()}

    @pytest.mark.parametrize("dwell", [0.0, 7.5])
    def test_worker_scratch_within_its_estimate(self, dwell):
        n = 2 ** 15
        m = MirrorModel(p_dark=0.3, alpha=1.0 + 0.5j, sigma_w=0.1,
                        n_samples=n, seed=5, dwell_samples=dwell)
        _record_variances(m)   # first-call allocations
        tracemalloc.start()
        try:
            _record_variances(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond the estimate only the record's stream objects, a few kB.
        assert peak <= mirror._WORKER_BYTES_PER_SAMPLE * n + 2 ** 14


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_powers_rejected(self, bad):
        with pytest.raises(ValueError, match="powers must be finite"):
            variance_vs_power(0.5, 0.1, [1.0, bad], sigma_w=0.1, seed=1,
                              n_samples=16)

    @pytest.mark.parametrize("field, bad", [
        ("sigma_w", np.nan), ("sigma_w", np.inf),
        ("dwell_samples", np.nan), ("dwell_samples", np.inf),
        ("alpha", np.nan), ("alpha", np.inf), ("alpha", complex(1.0, np.nan)),
        ("alpha", complex(-np.inf, 0.0)),
    ])
    def test_non_finite_model_field_rejected(self, field, bad):
        kwargs = dict(p_dark=0.5, alpha=1.0, sigma_w=0.1, n_samples=10,
                      seed=0, dwell_samples=0.0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MirrorModel(**kwargs)

    def test_non_finite_sigma_rejected_by_the_sweep(self):
        with pytest.raises(ValueError, match="sigma_w must be finite"):
            variance_vs_power(0.5, 0.1, [1.0], sigma_w=np.nan, seed=1,
                              n_samples=16)

    def test_nan_occupation_rejected(self):
        with pytest.raises(ValueError, match="p_dark"):
            MirrorModel(p_dark=np.nan, alpha=1.0, sigma_w=0.1, n_samples=10,
                        seed=0)
