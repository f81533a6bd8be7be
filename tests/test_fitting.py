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
        fitted, report = fit_single_qubit(list(zip(delta, t)), 0.0,
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
        fitted, report = fit_single_qubit(list(zip(delta, t)), 0.0,
                                          default_initial())
        np.testing.assert_allclose(report.omega_q, -offset, rtol=1e-6)
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-6)

    def test_finite_power_round_trip(self):
        alpha = np.sqrt(0.2 * GR_TRUE)
        delta, t = make_trace(alpha=alpha)
        fitted, report = fit_single_qubit(list(zip(delta, t)), alpha,
                                          default_initial())
        np.testing.assert_allclose(report.gamma_r, GR_TRUE, rtol=1e-3)
        np.testing.assert_allclose(report.s, S_TRUE, rtol=1e-3)

    def test_magnitude_only_round_trip(self):
        delta, t = make_trace()
        fitted, report = fit_single_qubit(list(zip(delta, np.abs(t))), 0.0,
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
            fitted, report = fit_single_qubit(list(zip(delta, t * noise)), 0.0,
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
        fitted, report = fit_single_qubit(list(zip(delta, t * noise)), 0.0,
                                          default_initial())
        assert 0.0 < report.stderr_gamma_r < 0.05 * GR_TRUE
        assert 0.0 < report.stderr_s < 0.5 * S_TRUE


class TestDegenerateInputs:
    def test_flat_transmission_rejected(self):
        delta = np.linspace(-1.0, 1.0, 50) * GR_TRUE
        flat = np.ones(50, dtype=complex)
        with pytest.raises(FitError, match="unidentifiable"):
            fit_single_qubit(list(zip(delta, flat)), 0.0, default_initial())

    def test_too_few_points_rejected(self):
        delta, t = make_trace(n_points=5)
        with pytest.raises(FitError):
            fit_single_qubit(list(zip(delta, t)), 0.0, default_initial())

    def test_non_finite_point_rejected(self):
        delta, t = make_trace()
        t[17] = np.nan
        with pytest.raises(FitError, match="1 of 200 data points"):
            fit_single_qubit(list(zip(delta, t)), 0.0, default_initial())

    def test_numerical_noise_floor_rejected(self):
        rng = np.random.default_rng(9)
        delta = np.linspace(-1.0, 1.0, 80) * GR_TRUE
        t = 1.0 + 1e-14 * (rng.standard_normal(80)
                           + 1j * rng.standard_normal(80))
        with pytest.raises(FitError):
            fit_single_qubit(list(zip(delta, t)), 0.0, default_initial())


class TestEvaluationCap:
    def test_cap_reached_is_a_fit_error(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 2)
        delta, t = make_trace()
        with pytest.raises(FitError, match="no convergence after 2"):
            fit_single_qubit(list(zip(delta, t)), 0.0, default_initial())


class TestIdempotence:
    def test_refitting_best_fit_is_stable(self):
        delta, t = make_trace()
        rng = np.random.default_rng(11)
        noise = 1.0 + 0.02 * (rng.standard_normal(t.size)
                              + 1j * rng.standard_normal(t.size)) / np.sqrt(2)
        first, rep1 = fit_single_qubit(list(zip(delta, t * noise)), 0.0,
                                       default_initial())
        model = transmission_analytic(first, delta + rep1.omega_q, 0.0)
        second, rep2 = fit_single_qubit(list(zip(delta, model)), 0.0, first)
        np.testing.assert_allclose(rep2.gamma_r, rep1.gamma_r, rtol=1e-6)
        np.testing.assert_allclose(rep2.s, rep1.s, rtol=1e-4)
