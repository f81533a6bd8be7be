"""Single-emitter scattering: closed form against the master equation.

The analytic transmission expression and the steady state of the full
Liouvillian are derived independently, so agreement between them to 1e-8
over a wide detuning/power grid checks both at once.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from device_strategies import PROPERTY, wide_powers_over_gbar
from hypothesis import given
from hypothesis import strategies as st
from oracles import transmission_numeric

from qdiode.operators import expectation, steady_state
from qdiode.single_qubit import (
    QubitParams,
    emitter_chain,
    transmission_analytic,
)

GAMMA_R = 2.0 * np.pi * 70e6


def make_qubit(gamma_nr=0.0, gamma_phi=0.0, omega_q=0.0):
    return QubitParams(omega_q=omega_q, gamma_r=GAMMA_R,
                       gamma_nr=gamma_nr, gamma_phi=gamma_phi)


class TestParams:
    def test_derived_rates(self):
        q = QubitParams(omega_q=0.0, gamma_r=4.0, gamma_nr=1.0, gamma_phi=0.5)
        np.testing.assert_allclose(q.gamma_1, 5.0)
        np.testing.assert_allclose(q.gamma_2, 3.0)

    def test_rejects_nonpositive_radiative_rate(self):
        with pytest.raises(ValueError):
            QubitParams(omega_q=0.0, gamma_r=0.0)

    def test_rejects_negative_dephasing(self):
        with pytest.raises(ValueError):
            QubitParams(omega_q=0.0, gamma_r=1.0, gamma_phi=-0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field",
                             ["omega_q", "gamma_r", "gamma_nr", "gamma_phi"])
    def test_rejects_non_finite_fields(self, field, value):
        # NaN passes every sign check, and then fails every solve in the SVD.
        rates = {"omega_q": 0.0, "gamma_r": 1.0, **{field: value}}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            QubitParams(**rates)


class TestDetuningGrid:
    # Without these checks a grid that overflowed to infinity would be
    # written as NaN transmissions.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected_before_solve(self, bad):
        q = make_qubit(gamma_phi=0.01 * GAMMA_R)
        with pytest.raises(ValueError, match="detuning grid must be finite"):
            transmission_analytic(q, [0.0, bad, GAMMA_R],
                                  np.sqrt(0.1 * GAMMA_R))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(1.0, np.nan)])
    def test_non_finite_amplitude_rejected_before_model(self, bad):
        with pytest.raises(ValueError, match="amplitude alpha must be finite"):
            transmission_analytic(make_qubit(), [0.0, 1.0], bad)

    @pytest.mark.parametrize("power", [0.0, 0.3, 1e6])
    def test_far_detuned_emitter_transmits_without_overflow(self, power):
        # (delta/gamma_2)^2 overflows beyond |delta| ~ 1e154 gamma_2; the
        # scaled form stays finite and gives the far-detuned |t| -> 1.
        # There t = 1 + i gamma_r / (2 delta) to first order in 1/delta.
        q = make_qubit(gamma_nr=0.02 * GAMMA_R, gamma_phi=0.01 * GAMMA_R)
        grid = np.array([-1e200, -1e160, 1e160, 1e200]) * q.gamma_2
        with warnings.catch_warnings(), np.errstate(over="raise",
                                                    invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            t = transmission_analytic(q, grid, np.sqrt(power * GAMMA_R))
        np.testing.assert_array_equal(t.real, 1.0)
        np.testing.assert_allclose(t.imag, q.gamma_r / (2.0 * grid),
                                   rtol=1e-12)

    def test_scaled_form_is_the_plain_form(self):
        # Wherever (delta/gamma_2)^2 does not overflow, the scaled form is
        # the textbook one to rounding.
        q = make_qubit(gamma_nr=0.02 * GAMMA_R, gamma_phi=0.01 * GAMMA_R)
        grid = np.concatenate([np.linspace(-4.0, 4.0, 81),
                               np.geomspace(4.0, 1e150, 30),
                               -np.geomspace(4.0, 1e150, 30)]) * q.gamma_2
        for power in [0.0, 0.3, 1e6]:
            alpha = np.sqrt(power * GAMMA_R)
            d = grid / q.gamma_2
            sat = 2.0 * abs(alpha) ** 2 * q.gamma_r / (q.gamma_1 * q.gamma_2)
            plain = 1.0 - (q.gamma_r / (2.0 * q.gamma_2)) * (1.0 - 1j * d) / (
                1.0 + d * d + sat)
            np.testing.assert_allclose(transmission_analytic(q, grid, alpha),
                                       plain, rtol=4e-16, atol=4e-16)


class TestAnalyticLimits:
    def test_full_reflection_on_resonance_lossless(self):
        t = transmission_analytic(make_qubit(), 0.0, 0.0)
        np.testing.assert_allclose(t, 0.0, atol=1e-14)

    def test_saturation_restores_transmission(self):
        alpha = np.sqrt(1e6 * GAMMA_R)
        t = transmission_analytic(make_qubit(), 0.0, alpha)
        np.testing.assert_allclose(t, 1.0, atol=1e-5)

    def test_weak_extinction_with_typical_device_rates(self):
        # Measured-scale rates: small non-radiative and dephasing channels
        # leave a sub-0.4% power leak at resonance.
        q = QubitParams(omega_q=0.0, gamma_r=2 * np.pi * 73.1158e6,
                        gamma_nr=2 * np.pi * 64.0e3,
                        gamma_phi=2 * np.pi * 74.7e3)
        t = transmission_analytic(q, 0.0, 0.0)
        assert abs(t) ** 2 < 0.004

    def test_lorentzian_symmetry(self):
        q = make_qubit(gamma_phi=0.05 * GAMMA_R)
        d = np.linspace(0.1, 4.0, 17) * q.gamma_2
        np.testing.assert_allclose(np.abs(transmission_analytic(q, d, 1.0)),
                                   np.abs(transmission_analytic(q, -d, 1.0)),
                                   rtol=1e-12)

    def test_magnitude_bounded_by_one(self):
        q = make_qubit(gamma_nr=0.3 * GAMMA_R, gamma_phi=0.1 * GAMMA_R)
        d = np.linspace(-5, 5, 101) * q.gamma_2
        for power in [0.0, 0.01, 1.0, 100.0]:
            t = transmission_analytic(q, d, np.sqrt(power * GAMMA_R))
            assert np.all(np.abs(t) <= 1.0 + 1e-12)


class TestNumericAgreement:
    def test_analytic_equals_steady_state_on_grid(self):
        """40 x 10 grid spanning 4 linewidths and 6 decades of power."""
        q = make_qubit(gamma_nr=0.02 * GAMMA_R, gamma_phi=0.01 * GAMMA_R)
        detunings = np.linspace(-4.0, 4.0, 40) * q.gamma_2
        powers = np.geomspace(1e-3, 1e3, 10) * GAMMA_R
        worst = 0.0
        for power in powers:
            alpha = np.sqrt(power)
            for d in detunings:
                qq = QubitParams(omega_q=d, gamma_r=q.gamma_r,
                                 gamma_nr=q.gamma_nr, gamma_phi=q.gamma_phi)
                t_num = transmission_numeric(qq, alpha)
                t_ana = transmission_analytic(qq, d, alpha)
                worst = max(worst, abs(t_num - t_ana))
        assert worst < 1e-8

    def test_undriven_steady_state_is_ground(self):
        q = make_qubit(gamma_phi=0.1 * GAMMA_R)
        lv, _, _ = emitter_chain([q], 1.0)
        rho = steady_state(lv)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_strong_drive_saturates_population(self):
        # Approach to 1/2 goes as 1/(2 s) with s the saturation parameter;
        # at |alpha|^2 = 100 gamma_r the residual is 1.25e-3 exactly.
        q = make_qubit()
        alpha = np.sqrt(100.0 * GAMMA_R)
        lv, _, _ = emitter_chain([q], 1.0, alpha)
        rho = steady_state(lv)
        np.testing.assert_allclose(rho[1, 1].real, 0.5, atol=2e-3)
        stronger, _, _ = emitter_chain([q], 1.0, np.sqrt(1e4 * GAMMA_R))
        np.testing.assert_allclose(steady_state(stronger)[1, 1].real, 0.5,
                                   atol=2e-5)

    def test_transmission_requires_a_drive(self):
        with pytest.raises(ValueError):
            transmission_numeric(make_qubit())

    def test_beta_only_drive_gives_left_moving_ratio(self):
        q = make_qubit(gamma_phi=0.05 * GAMMA_R, omega_q=0.3 * GAMMA_R)
        amp = np.sqrt(0.4 * GAMMA_R)
        # The emitter couples equally to both directions, so <b_out>/beta
        # under a drive from the right is the forward closed form.
        lv, _, b_out = emitter_chain([q], 1.0, 0.0, amp)
        np.testing.assert_allclose(expectation(b_out, steady_state(lv)) / amp,
                                   transmission_analytic(q, q.omega_q, amp),
                                   atol=1e-12)


@st.composite
def lossy_emitters(draw):
    """An emitter with gamma_r in [0.5, 2], gamma_nr <= 0.2 gamma_r and
    gamma_phi <= 0.3 gamma_r, a complex drive of flux from 1e-4 to 1e10
    gamma_r, and a grid of up to 7 detunings within 20 gamma_r."""
    gr = draw(st.floats(0.5, 2.0))
    q = QubitParams(omega_q=0.0, gamma_r=gr,
                    gamma_nr=draw(st.floats(0.0, 0.2)) * gr,
                    gamma_phi=draw(st.floats(0.0, 0.3)) * gr)
    flux = draw(wide_powers_over_gbar)
    amp = np.sqrt(flux * gr) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    grid = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=7))
    return q, flux, amp, np.array(grid) * gr


@PROPERTY
@given(lossy_emitters())
def test_one_emitter_is_reciprocal_bit_for_bit(drawn):
    """One emitter is mirror-symmetric: a drive from the right sees, in
    <b_out>, exactly what the same drive from the left sees in <a_out>. This
    is why a diode needs two emitters, and why a single-emitter sweep drives
    from the left only."""
    q, flux, amp, grid = drawn

    def solve(alpha, beta):
        means = []
        for det in grid:
            lv, a_out, b_out = emitter_chain([replace(q, omega_q=det)], 1.0,
                                             alpha, beta)
            rho = steady_state(lv)
            means.append((expectation(a_out, rho), expectation(b_out, rho)))
        return np.array(means).T

    forward, _ = solve(amp, 0.0)
    _, reverse = solve(0.0, amp)
    assert np.array_equal(forward / amp, reverse / amp)
    if flux <= 1e6:
        np.testing.assert_allclose(forward / amp,
                                   transmission_analytic(q, grid, amp),
                                   rtol=0, atol=1e-12)


class TestFluxConservation:
    def test_no_absorption_without_nonradiative_decay(self):
        """Dephasing redistributes photons between ports but keeps the total."""
        rng = np.random.default_rng(7)
        for _ in range(8):
            q = make_qubit(gamma_phi=rng.uniform(0, 0.3) * GAMMA_R,
                           omega_q=rng.uniform(-1, 1) * GAMMA_R)
            alpha = np.sqrt(rng.uniform(0.001, 3.0) * GAMMA_R)
            beta = np.sqrt(rng.uniform(0.0, 0.5) * GAMMA_R)
            lv, a_out, b_out = emitter_chain([q], 1.0, alpha, beta)
            rho = steady_state(lv)
            flux = (expectation(a_out.conj().T @ a_out, rho).real
                    + expectation(b_out.conj().T @ b_out, rho).real)
            total_in = abs(alpha) ** 2 + abs(beta) ** 2
            np.testing.assert_allclose(flux, total_in, rtol=1e-8)

    def test_nonradiative_decay_absorbs(self):
        q = make_qubit(gamma_nr=0.2 * GAMMA_R)
        alpha = np.sqrt(0.05 * GAMMA_R)
        lv, a_out, b_out = emitter_chain([q], 1.0, alpha)
        rho = steady_state(lv)
        flux = (expectation(a_out.conj().T @ a_out, rho).real
                + expectation(b_out.conj().T @ b_out, rho).real)
        assert flux < abs(alpha) ** 2 * (1.0 - 1e-3)
