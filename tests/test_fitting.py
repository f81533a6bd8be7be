"""Spectroscopy fitting: round trips, noise robustness, degenerate inputs."""

import numpy as np
import pytest

from qdiode import fitting
from qdiode.fitting import FitError, fit_single_qubit
from qdiode.single_qubit import QubitParams, transmission_analytic

# Typical measured device rates (Hz values times 2 pi).
GR_TRUE = 2.0 * np.pi * 72.4299e6
S_TRUE = 2.0 * np.pi * (191.1e3 + 2.0 * 211.4e3)


def make_trace(n_points=200, span=1.5, alpha=0.0, offset=0.0):
    q = QubitParams(omega_q=offset, gamma_r=GR_TRUE, gamma_nr=0.0,
                    gamma_phi=0.5 * S_TRUE)
    delta = np.linspace(-span, span, n_points) * q.gamma_2
    return delta, transmission_analytic(q, delta + offset, alpha)


def default_initial(gr_scale=1.3, s_scale=0.6):
    return QubitParams(omega_q=0.0, gamma_r=gr_scale * GR_TRUE,
                       gamma_nr=0.0, gamma_phi=0.5 * s_scale * S_TRUE)


class TestNoiselessRoundTrip:
    def test_recovers_parameters_to_a_tenth_percent(self):
        delta, t = make_trace()
        fitted, report = fit_single_qubit(delta, t, 0.0,
                                          default_initial())
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-3)
        np.testing.assert_allclose(report.s, S_TRUE, rtol=1e-3)
        assert report.converged
        assert abs(report.omega_q) < 1e-4 * GR_TRUE

    def test_center_offset_recovered(self):
        offset = 0.3 * GR_TRUE / 2.0
        q = QubitParams(omega_q=0.0, gamma_r=GR_TRUE, gamma_nr=0.0,
                        gamma_phi=0.5 * S_TRUE)
        delta = np.linspace(-1.5, 1.5, 200) * q.gamma_2
        # Data recorded against a mis-calibrated axis: true resonance sits
        # at -offset on this axis.
        t = transmission_analytic(q, delta - offset, 0.0)
        fitted, report = fit_single_qubit(delta, t, 0.0,
                                          default_initial())
        np.testing.assert_allclose(report.omega_q, -offset, rtol=1e-6)
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-6)

    def test_finite_power_round_trip(self):
        alpha = np.sqrt(0.2 * GR_TRUE)
        delta, t = make_trace(alpha=alpha)
        fitted, report = fit_single_qubit(delta, t, alpha,
                                          default_initial())
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-3)
        np.testing.assert_allclose(report.s, S_TRUE, rtol=1e-3)

    def test_magnitude_only_round_trip(self):
        delta, t = make_trace()
        fitted, report = fit_single_qubit(delta, np.abs(t), 0.0,
                                          default_initial())
        assert report.magnitude_only
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-3)
        np.testing.assert_allclose(report.s, S_TRUE, rtol=1e-2)


class TestNoisyRecovery:
    def test_multiplicative_noise_monte_carlo(self):
        """1% complex multiplicative noise; tolerances 2% / 10%."""
        delta, t = make_trace()
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(20):
            noise = 1.0 + 0.01 * (rng.standard_normal(t.size)
                                  + 1j * rng.standard_normal(t.size)) / np.sqrt(2)
            fitted, report = fit_single_qubit(delta, t * noise, 0.0,
                                              default_initial())
            if (abs(report.gamma_r - GR_TRUE) / GR_TRUE < 0.02
                    and abs(report.s - S_TRUE) / S_TRUE < 0.10):
                hits += 1
        assert hits >= 19

    def test_standard_errors_have_sane_scale(self):
        delta, t = make_trace()
        rng = np.random.default_rng(5)
        noise = 1.0 + 0.01 * (rng.standard_normal(t.size)
                              + 1j * rng.standard_normal(t.size)) / np.sqrt(2)
        fitted, report = fit_single_qubit(delta, t * noise, 0.0,
                                          default_initial())
        assert 0.0 < report.stderr_gamma_r < 0.05 * GR_TRUE
        assert 0.0 < report.stderr_s < 0.5 * S_TRUE


class TestDegenerateInputs:
    def test_flat_transmission_rejected(self):
        delta = np.linspace(-1.0, 1.0, 50) * GR_TRUE
        flat = np.ones(50, dtype=complex)
        with pytest.raises(FitError, match="unidentifiable"):
            fit_single_qubit(delta, flat, 0.0, default_initial())

    def test_too_few_points_rejected(self):
        delta, t = make_trace(n_points=5)
        with pytest.raises(FitError):
            fit_single_qubit(delta, t, 0.0, default_initial())

    def test_non_finite_point_rejected(self):
        delta, t = make_trace()
        t[17] = np.nan
        with pytest.raises(FitError, match="1 of 200 data points"):
            fit_single_qubit(delta, t, 0.0, default_initial())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(1.0, np.nan)])
    def test_non_finite_amplitude_rejected(self, bad, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the model was evaluated")
        monkeypatch.setattr(fitting, "_model", fail)
        delta, t = make_trace()
        with pytest.raises(ValueError, match="amplitude alpha must be finite"):
            fit_single_qubit(delta, t, bad, default_initial())

    def test_numerical_noise_floor_rejected(self):
        rng = np.random.default_rng(9)
        delta = np.linspace(-1.0, 1.0, 80) * GR_TRUE
        t = 1.0 + 1e-14 * (rng.standard_normal(80)
                           + 1j * rng.standard_normal(80))
        with pytest.raises(FitError):
            fit_single_qubit(delta, t, 0.0, default_initial())


class TestEvaluationCap:
    def test_cap_reached_is_a_fit_error(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 2)
        delta, t = make_trace()
        with pytest.raises(FitError, match="no convergence after 2"):
            fit_single_qubit(delta, t, 0.0, default_initial())


class TestStall:
    """A fit that converges where the model is flat over the data explains
    none of the resonance: it is a FitError, not a result."""

    def trace(self):
        q = QubitParams(omega_q=0.0, gamma_r=2.0 * np.pi * 70e6,
                        gamma_phi=2.0 * np.pi * 100e3)
        delta = np.linspace(-4.0, 4.0, 201) * q.gamma_2
        return q, delta, transmission_analytic(q, delta, 0.0)

    def test_start_ten_times_too_high_is_a_fit_error(self):
        # Without the check this returned s of about 3e27 Hz, a residual
        # norm equal to the flat model's and standard errors of 0.
        q, delta, t = self.trace()
        initial = QubitParams(omega_q=0.0, gamma_r=10.0 * q.gamma_r)
        with pytest.raises(FitError, match="stalled"):
            fit_single_qubit(delta, t, 0.0, initial)

    def test_one_percent_noise_is_far_from_a_stall(self):
        q, delta, t = self.trace()
        rng = np.random.default_rng(3)
        t = t * (1.0 + 0.01 * (rng.standard_normal(t.size)
                               + 1j * rng.standard_normal(t.size))
                 / np.sqrt(2))
        initial = QubitParams(omega_q=0.0, gamma_r=1.2 * q.gamma_r)
        _, report = fit_single_qubit(delta, t, 0.0, initial)
        assert (report.residual_norm
                < 0.1 * fitting.STALL_FRACTION * np.linalg.norm(t - 1.0))
        np.testing.assert_allclose(report.gamma_r, q.gamma_r, rtol=0.02)


class TestInputs:
    @pytest.mark.parametrize("magnitude_only", [False, True])
    def test_real_trace_is_fitted_in_magnitude(self, magnitude_only):
        delta, t = make_trace()
        _, report = fit_single_qubit(delta, np.abs(t), 0.0,
                                     default_initial(), magnitude_only)
        assert report.magnitude_only
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-6)

    def test_complex_trace_in_magnitude_on_request(self):
        delta, t = make_trace()
        got = fit_single_qubit(delta, t, 0.0, default_initial(),
                               magnitude_only=True)
        want = fit_single_qubit(delta, np.abs(t), 0.0, default_initial())
        assert got == want

    @pytest.mark.parametrize("delta_shape, t_shape", [
        ((200,), (199,)), ((200,), (200, 1)), ((2, 100), (2, 100))])
    def test_arrays_of_another_shape_rejected(self, delta_shape, t_shape):
        delta, t = make_trace()
        with pytest.raises(ValueError, match="equal-length 1-d arrays"):
            fit_single_qubit(np.resize(delta, delta_shape),
                             np.resize(t, t_shape), 0.0, default_initial())


class TestIdempotence:
    def test_refitting_best_fit_is_stable(self):
        delta, t = make_trace()
        rng = np.random.default_rng(11)
        noise = 1.0 + 0.02 * (rng.standard_normal(t.size)
                              + 1j * rng.standard_normal(t.size)) / np.sqrt(2)
        first, rep1 = fit_single_qubit(delta, t * noise, 0.0,
                                       default_initial())
        model = transmission_analytic(first, delta + rep1.omega_q, 0.0)
        second, rep2 = fit_single_qubit(delta, model, 0.0, first)
        np.testing.assert_allclose(rep2.gamma_r, rep1.gamma_r, rtol=1e-6)
        np.testing.assert_allclose(rep2.s, rep1.s, rtol=1e-4)


class TestNumpyHelpers:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 199, 200])
    def test_median_is_numpy_median(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3)
            assert fitting._median(x) == np.median(x)

    @pytest.mark.parametrize("magnitude_only", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, np.sqrt(0.3 * GR_TRUE)])
    def test_jacobian_matches_central_differences(self, magnitude_only, alpha):
        delta, t = make_trace(n_points=60)
        target = np.abs(t) if magnitude_only else t
        args = (delta, target, alpha, GR_TRUE / 2.0, magnitude_only)
        x = np.array([np.log(1.1 * GR_TRUE), np.log(0.7 * S_TRUE), 0.2])
        jac = fitting._residuals(x, *args)[1]
        step = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            fd = (fitting._residuals(x + e, *args)[0]
                  - fitting._residuals(x - e, *args)[0]) / (2.0 * step)
            np.testing.assert_allclose(jac[:, k], fd,
                                       atol=1e-7 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("alpha", [0.0, np.sqrt(0.3 * GR_TRUE)])
    def test_model_is_transmission_analytic(self, alpha):
        """_model's t is the single-qubit closed form it differentiates."""
        delta = np.linspace(-3.0, 3.0, 41) * GR_TRUE
        scale = GR_TRUE / 2.0
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = np.array([np.log(GR_TRUE) + rng.uniform(-1.0, 1.0),
                          np.log(S_TRUE) + rng.uniform(-3.0, 3.0),
                          rng.uniform(-2.0, 2.0)])
            q = QubitParams(omega_q=0.0, gamma_r=np.exp(x[0]), gamma_nr=0.0,
                            gamma_phi=0.5 * np.exp(x[1]))
            ref = transmission_analytic(q, delta + x[2] * scale, alpha)
            t = fitting._model(x, delta, alpha, scale)[0]
            np.testing.assert_allclose(t, ref, rtol=0.0, atol=1e-14)


class TestEngine:
    @staticmethod
    def rosenbrock(x):
        return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))

    def test_solves_rosenbrock(self):
        sol = fitting._least_squares(self.rosenbrock, [-1.2, 1.0])
        assert sol.success
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
        assert sol.njev <= sol.nfev

    def test_returns_the_jacobian_of_the_solution(self):
        sol = fitting._least_squares(self.rosenbrock, [-1.2, 1.0])
        r, jac = self.rosenbrock(sol.x)
        assert np.array_equal(sol.fun, r)
        assert np.array_equal(sol.jac, jac)

    def test_non_finite_start_returns_failure(self):
        sol = fitting._least_squares(
            lambda x: (np.array([np.nan, x[0]]), np.eye(2)[:, :1]), [0.0])
        assert not sol.success
        assert sol.nfev == 1


# Starting radiative rates of the battery, from 0.8 to 1.25 times the truth.
BATTERY_STARTS = np.geomspace(0.8, 1.25, 15)


class TestEngineMatchesScipy:
    """The fit against scipy.optimize.least_squares, imported only here as
    the reference: trust-region reflective with a 3-point Jacobian and
    tolerances of 1e-15, in the fitter's own coordinates.

    60 seeded traces: complex and magnitude-only, noiseless and with 1%
    complex noise, from 15 starts. On noisy magnitude-only traces s sits in
    a flat valley of the cost, where two optimizers may stop at different s
    with equal cost; there the costs are compared, not s.
    """

    @pytest.mark.parametrize("k", range(BATTERY_STARTS.size))
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("magnitude_only", [False, True])
    def test_trace(self, magnitude_only, noisy, k):
        from scipy.optimize import least_squares

        delta, t = make_trace()
        if noisy:
            rng = np.random.default_rng(100 + k)
            t = t * (1.0 + 0.01 * (rng.standard_normal(t.size)
                                   + 1j * rng.standard_normal(t.size))
                     / np.sqrt(2))
        target = np.abs(t) if magnitude_only else t
        initial = default_initial(gr_scale=BATTERY_STARTS[k])
        _, report = fit_single_qubit(delta, target, 0.0, initial)

        center_scale = initial.gamma_2
        x0 = [np.log(initial.gamma_r), np.log(2.0 * initial.gamma_phi), 0.0]
        ref = least_squares(lambda x, *a: fitting._residuals(x, *a)[0], x0,
                            jac="3-point",
                            ftol=1e-15, xtol=1e-15, gtol=1e-15,
                            max_nfev=1000,
                            args=(delta, target, 0.0, center_scale,
                                  magnitude_only))
        assert ref.success
        ref_norm = np.linalg.norm(ref.fun)
        assert report.residual_norm <= max(ref_norm * (1.0 + 1e-10), 1e-12)
        np.testing.assert_allclose(report.gamma_r, np.exp(ref.x[0]),
                                   rtol=1e-8)
        np.testing.assert_allclose(report.omega_q, ref.x[2] * center_scale,
                                   atol=1e-9 * GR_TRUE)
        if not (noisy and magnitude_only):
            np.testing.assert_allclose(report.s, np.exp(ref.x[1]), rtol=1e-6)
