"""Two-emitter cascaded device: collective decay, nonreciprocity, sweeps.

The decisive oracles are independent of the transmission code path: decay
rates of the symmetric/antisymmetric states come from time evolution of the
undriven Liouvillian, flux conservation from output-operator expectation
values, and the single-emitter limit from the closed-form scattering result.
"""

import numpy as np
import pytest

from qdiode.diode import (
    BRIGHT_STATE,
    DARK_STATE,
    DiodeConfig,
    build_diode_liouvillian,
    dark_bright_rates,
    dark_state_population,
    diode_efficiency,
    diode_output_ops,
    dispersive_phase,
    operating_point,
    optimal_tuning,
    phase_from_frequency,
    power_sweep,
    transmission,
)
from qdiode.operators import (
    SIGMA_MINUS,
    SolverError,
    evolve,
    expectation,
    steady_state,
    vec,
)
from qdiode.single_qubit import (
    QubitParams,
    build_single_qubit_liouvillian,
    transmission_analytic,
)

GAMMA = 2.0 * np.pi * 70e6
DELTA = np.sqrt(1e-3)


def ideal_diode(delta=DELTA, gamma_nr=0.0, gamma_phi=0.0, gamma2_scale=1.0):
    gbar = GAMMA * np.sqrt(gamma2_scale)
    w1, w2 = optimal_tuning(delta, gbar)
    q1 = QubitParams(omega_q=w1, gamma_r=GAMMA, gamma_nr=gamma_nr,
                     gamma_phi=gamma_phi)
    q2 = QubitParams(omega_q=w2, gamma_r=GAMMA * gamma2_scale,
                     gamma_nr=gamma_nr, gamma_phi=gamma_phi)
    return DiodeConfig(q1, q2, delta)


# ----------------------------------------------------------------------------
#                      Configuration and helpers
# ----------------------------------------------------------------------------

class TestConfigAndHelpers:
    def test_from_delta_sets_consistent_phase(self):
        """The propagation phase factor follows delta: e^{i(pi - delta)}."""
        c = ideal_diode()
        np.testing.assert_allclose(c.phase, np.exp(1j * (np.pi - DELTA)))
        np.testing.assert_allclose(ideal_diode(delta=-DELTA).phase,
                                   np.exp(1j * (np.pi + DELTA)))

    def test_gamma_bar_is_geometric_mean(self):
        c = ideal_diode(gamma2_scale=4.0)
        np.testing.assert_allclose(c.gamma_bar, 2.0 * GAMMA)

    def test_optimal_tuning_offsets(self):
        w1, w2 = optimal_tuning(0.1, 2.0)
        np.testing.assert_allclose(w1, -0.2)
        assert w2 == 0.0

    def test_dark_bright_rates_values(self):
        gd, gb = dark_bright_rates(0.1, 4.0, 9.0)
        np.testing.assert_allclose(gd, 0.5 * 0.01 * 6.0)
        np.testing.assert_allclose(gb, 12.0)

    def test_large_delta_warns(self):
        with pytest.warns(UserWarning):
            dark_bright_rates(1.5, 1.0, 1.0)

    def test_phase_from_frequency(self):
        phi, delta = phase_from_frequency(0.75, 1.0)
        np.testing.assert_allclose(phi, 0.75 * np.pi)
        np.testing.assert_allclose(delta, 0.25 * np.pi)
        with pytest.raises(ValueError):
            phase_from_frequency(1.0, -2.0)

    def test_dispersive_phase_closed_form(self):
        from scipy.constants import c as c_light
        f, f_c, dist = 8.8e9, 6.5e9, 0.25
        expected = (2.0 * np.pi * f * dist / c_light
                    * np.sqrt(1.0 - (f_c / f) ** 2))
        np.testing.assert_allclose(dispersive_phase(f, f_c, dist), expected)

    def test_dispersive_phase_below_cutoff_rejected(self):
        with pytest.raises(ValueError):
            dispersive_phase(6.0e9, 6.5e9, 0.25)

    def test_dark_population_projector(self):
        rho_d = np.outer(DARK_STATE, DARK_STATE.conj())
        np.testing.assert_allclose(dark_state_population(rho_d), 1.0)
        rho_gg = np.zeros((4, 4)); rho_gg[0, 0] = 1.0
        np.testing.assert_allclose(dark_state_population(rho_gg), 0.0)
        with pytest.raises(ValueError):
            dark_state_population(np.eye(2))


# ----------------------------------------------------------------------------
#                    Collective decay of the undriven pair
# ----------------------------------------------------------------------------

class TestCollectiveDecay:
    def test_dark_and_bright_population_rates(self):
        """Population decay at 2 gamma_D (slow) and gamma_B (fast)."""
        delta = 0.02
        c = ideal_diode(delta=delta)
        lv = build_diode_liouvillian(c)
        gd, gb = dark_bright_rates(delta, GAMMA, GAMMA)

        rho_d = np.outer(DARK_STATE, DARK_STATE.conj())
        t_probe = 0.3 / gd
        p_d = dark_state_population(evolve(rho_d, lv, t_probe))
        np.testing.assert_allclose(-np.log(p_d) / t_probe, 2.0 * gd,
                                   rtol=5e-3)

        rho_b = np.outer(BRIGHT_STATE, BRIGHT_STATE.conj())
        t_probe = 0.3 / gb
        p_b = np.real(BRIGHT_STATE.conj()
                      @ evolve(rho_b, lv, t_probe) @ BRIGHT_STATE)
        np.testing.assert_allclose(-np.log(p_b) / t_probe, gb, rtol=5e-3)

    def test_rate_contrast_scales_as_delta_squared(self):
        for delta in [0.01, 0.03]:
            gd, gb = dark_bright_rates(delta, GAMMA, GAMMA)
            np.testing.assert_allclose(gd / gb, delta ** 2 / 4.0, rtol=1e-12)

    def test_quarter_wave_dark_state_is_decoupled(self):
        """At exactly half-wavelength-compensated spacing the antisymmetric
        channel closes: the driven device has no unique steady state."""
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
        c = DiodeConfig(q, q, 0.0)
        with pytest.raises(SolverError, match="degenerate"):
            transmission(c, "forward", 0.05 * GAMMA)


@pytest.mark.parametrize("model", [
    "single_qubit",
    pytest.param("diode", marks=pytest.mark.xfail(strict=True, reason=(
        "the diode model applies gamma_phi D[sigma_z] to each qubit where "
        "the single-qubit model applies (gamma_phi/2) D[sigma_z], so qubit "
        "1's coherence decays at gamma_1/2 + 2 gamma_phi = 1.1, not at "
        "gamma_2 = 0.8"))),
])
def test_isolated_emitter_coherence_decays_at_gamma_2(model):
    """An undriven emitter's coherence |g><e| should decay at gamma_2 in
    either model. The rate is minus the real part of the coherence's
    diagonal Liouvillian element; in the diode, qubit 2 stays in |g>."""
    q = QubitParams(omega_q=0.0, gamma_r=1.0, gamma_phi=0.3)
    if model == "single_qubit":
        lv, x = build_single_qubit_liouvillian(q), SIGMA_MINUS
    else:
        lv = build_diode_liouvillian(DiodeConfig(q, q, DELTA))
        x = np.kron(SIGMA_MINUS, np.diag([1.0, 0.0]))      # |gg><eg|
    v = vec(x)
    np.testing.assert_allclose(-(v.conj() @ lv @ v).real, q.gamma_2,
                               rtol=1e-12)


# ----------------------------------------------------------------------------
#                      Scattering and nonreciprocity
# ----------------------------------------------------------------------------

class TestTransmission:
    def test_drive_pattern_validation(self):
        c = ideal_diode()
        with pytest.raises(ValueError, match="sideways"):
            transmission(c, "sideways", 0.05 * c.gamma_bar)

    def test_symmetric_device_is_reciprocal(self):
        """delta = 0 with dephasing: swapping the emitters maps forward to
        reverse, so transmission magnitudes must coincide."""
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA, gamma_phi=0.01 * GAMMA)
        c = DiodeConfig(q, q, 0.0)
        t_f = transmission(c, "forward", 0.05 * GAMMA)
        t_r = transmission(c, "reverse", 0.05 * GAMMA)
        np.testing.assert_allclose(abs(t_f), abs(t_r), atol=1e-10)

    def test_mirrored_offset_gives_same_magnitudes(self):
        """delta -> -delta with the opposite frequency offset is the same
        device seen in a mirror."""
        power = 0.05 * GAMMA
        results = []
        for sign in (+1.0, -1.0):
            delta = sign * DELTA
            w1, w2 = optimal_tuning(delta, GAMMA)
            q1 = QubitParams(omega_q=w1, gamma_r=GAMMA)
            q2 = QubitParams(omega_q=w2, gamma_r=GAMMA)
            c = DiodeConfig(q1, q2, delta)
            results.append((abs(transmission(c, "forward", power)),
                            abs(transmission(c, "reverse", power))))
        np.testing.assert_allclose(results[0], results[1], atol=1e-10)

    def test_single_emitter_limit(self):
        """Second emitter detuned far away and barely coupled: forward
        transmission reduces to the one-atom closed form."""
        delta = DELTA
        w1, _ = optimal_tuning(delta, GAMMA)
        q1 = QubitParams(omega_q=w1, gamma_r=GAMMA)
        q2 = QubitParams(omega_q=100.0 * GAMMA, gamma_r=1e-5 * GAMMA)
        c = DiodeConfig(q1, q2, delta)
        power = 0.05 * GAMMA
        t_two = transmission(c, "forward", power)
        t_one = transmission_analytic(q1, q1.omega_q, np.sqrt(power))
        np.testing.assert_allclose(abs(t_two), abs(t_one), rtol=1e-4)

    def test_flux_conservation_without_absorption(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            delta = rng.uniform(-0.3, 0.3)
            q1 = QubitParams(omega_q=rng.uniform(-1, 1) * GAMMA,
                             gamma_r=GAMMA * rng.uniform(0.5, 2.0),
                             gamma_phi=rng.uniform(0, 0.2) * GAMMA)
            q2 = QubitParams(omega_q=rng.uniform(-1, 1) * GAMMA,
                             gamma_r=GAMMA * rng.uniform(0.5, 2.0),
                             gamma_phi=rng.uniform(0, 0.2) * GAMMA)
            c = DiodeConfig(q1, q2, delta)
            alpha = np.sqrt(rng.uniform(0.001, 2.0) * c.gamma_bar)
            beta = np.sqrt(rng.uniform(0.0, 1.0) * c.gamma_bar)
            rho = steady_state(build_diode_liouvillian(c, alpha, beta))
            a_out, b_out = diode_output_ops(c, alpha, beta)
            flux = (expectation(a_out.conj().T @ a_out, rho).real
                    + expectation(b_out.conj().T @ b_out, rho).real)
            np.testing.assert_allclose(flux, abs(alpha) ** 2 + abs(beta) ** 2,
                                       rtol=1e-8)

    def test_plateau_operating_point_regression(self):
        """Frozen values at the canonical operating point (p = 0.05 gamma_bar,
        delta^2 = 1e-3, ideal rates)."""
        c = ideal_diode()
        op = operating_point(c, 0.05 * c.gamma_bar)
        np.testing.assert_allclose(abs(op.t_forward), 0.64458, atol=2e-4)
        np.testing.assert_allclose(abs(op.t_reverse), 0.03283, atol=2e-4)
        np.testing.assert_allclose(op.efficiency, 0.58205, atol=2e-4)
        np.testing.assert_allclose(op.dark_population_forward, 0.64167,
                                   atol=2e-4)
        np.testing.assert_allclose(op.dark_population_reverse, 0.00275,
                                   atol=2e-4)

    def test_forward_beats_reverse_on_the_plateau(self):
        c = ideal_diode()
        op = operating_point(c, 0.05 * c.gamma_bar)
        assert abs(op.t_forward) > 10.0 * abs(op.t_reverse)
        assert op.dark_population_forward > 0.5
        assert op.dark_population_reverse < 0.05


class TestDarkStateTrapping:
    """The two limits of the forward dark-state rate balance derived in
    acceptance check 2, against the full model (p in units of gamma_bar)."""

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.2, 1.0])
    def test_saturation_limit(self, p):
        # delta -> 0 at fixed p: P = (2 + p^2) / (3 + 2p + 4p^2). The
        # gamma_D/p correction is below 6e-7 here.
        c = ideal_diode(delta=np.sqrt(1e-7))
        pop = operating_point(c, p * c.gamma_bar).dark_population_forward
        np.testing.assert_allclose(pop, (2.0 + p * p) / (3.0 + 2.0 * p
                                                        + 4.0 * p * p),
                                   atol=1e-5)

    @pytest.mark.parametrize("p_over_gamma_d", [0.2, 1.0, 4.0, 20.0])
    def test_weak_drive_limit(self, p_over_gamma_d):
        # p << gamma_bar: P = 2p / (3p + gamma_D). The saturation
        # correction (4/9) p is below 5e-6 here.
        c = ideal_diode(delta=1e-3)
        gamma_d, _ = dark_bright_rates(c.delta, GAMMA, GAMMA)
        p = p_over_gamma_d * gamma_d
        pop = operating_point(c, p).dark_population_forward
        np.testing.assert_allclose(pop, 2.0 * p / (3.0 * p + gamma_d),
                                   atol=1e-5)


class TestEfficiency:
    def test_zero_when_dead(self):
        assert diode_efficiency(0.0, 0.0) == 0.0

    def test_perfect_contrast(self):
        np.testing.assert_allclose(diode_efficiency(1.0, 0.0), 1.0)

    def test_reciprocal_is_zero(self):
        np.testing.assert_allclose(diode_efficiency(0.7, 0.7), 0.0,
                                   atol=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t_f = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            t_r = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = diode_efficiency(t_f, t_r)
            assert -1.0 <= e <= 1.0


# ----------------------------------------------------------------------------
#                               Sweeps
# ----------------------------------------------------------------------------

class TestPowerSweep:
    def test_requires_ascending_powers(self):
        c = ideal_diode()
        with pytest.raises(ValueError):
            power_sweep(c, [2.0 * c.gamma_bar, 1.0 * c.gamma_bar])

    def test_rows_in_input_order_with_efficiency_peak(self):
        c = ideal_diode()
        powers = np.geomspace(1e-5, 10.0, 7) * c.gamma_bar
        rows = power_sweep(c, powers)
        np.testing.assert_allclose([r.power for r in rows], powers)
        effs = [r.efficiency for r in rows]
        assert max(effs) > 0.5
        assert effs[0] < 0.1 and effs[-1] < 0.1
        assert all(r.error is None for r in rows)

    def test_one_sided_sweep(self):
        c = ideal_diode()
        powers = [0.01 * c.gamma_bar, 0.05 * c.gamma_bar]
        rows = power_sweep(c, powers, sides=("reverse",))
        for p, r in zip(powers, rows):
            op = operating_point(c, p)
            assert r.error is None
            assert np.isnan(r.t_forward) and np.isnan(r.efficiency)
            assert np.isnan(r.dark_population_forward)
            assert r.t_reverse == op.t_reverse
            assert r.dark_population_reverse == op.dark_population_reverse

    def test_unknown_side_rejected(self):
        c = ideal_diode()
        with pytest.raises(ValueError, match="sideways"):
            power_sweep(c, [0.01 * c.gamma_bar], sides=("sideways",))

    def test_failed_rows_are_marked_not_fatal(self):
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
        c = DiodeConfig(q, q, 0.0)
        rows = power_sweep(c, [0.01 * GAMMA, 0.1 * GAMMA])
        assert len(rows) == 2
        for r in rows:
            assert r.error is not None
            assert np.isnan(r.efficiency)


class TestBadPowers:
    """Negative and non-finite powers are named in a ValueError before any
    steady state is solved (np.sqrt would otherwise hand the solver NaN)."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a steady state was solved")
        monkeypatch.setattr("qdiode.diode.steady_state", fail)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_operating_point_rejects(self, bad, no_solve):
        with pytest.raises(ValueError, match=f"got {bad}"):
            operating_point(ideal_diode(), bad)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_transmission_rejects(self, bad, no_solve):
        with pytest.raises(ValueError, match=f"got {bad}"):
            transmission(ideal_diode(), "forward", bad)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_power_sweep_rejects_up_front(self, bad, no_solve):
        c = ideal_diode()
        with pytest.raises(ValueError, match=f"got {bad}"):
            power_sweep(c, [0.01 * c.gamma_bar, bad])

    def test_zero_power_still_allowed(self):
        c = ideal_diode()
        op = operating_point(c, 0.0)
        assert op.t_forward == 0 and op.t_reverse == 0
        assert power_sweep(c, [0.0])[0].error is None
