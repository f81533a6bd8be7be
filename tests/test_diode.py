"""Two-emitter cascaded device: collective decay, nonreciprocity, sweeps.

The decisive oracles are independent of the transmission code path: decay
rates of the symmetric/antisymmetric states come from time evolution of the
undriven Liouvillian, flux conservation from output-operator expectation
values, and the single-emitter limit from the closed-form scattering result.
"""

import dataclasses
import os
import threading

import numpy as np
import pytest
from device_strategies import (
    PROPERTY,
    lossy_devices,
    powers_over_gbar,
    sides,
    wide_powers_over_gbar,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import linear_transmission
from svd_reference import unvec

from qdiode import diode
from qdiode.diode import (
    DARK_STATE,
    DiodeConfig,
    DiodeOperatingPoint,
    _drive,
    _drive_sweep,
    dark_bright_rates,
    dark_state_population,
    diode_efficiency,
    diode_model,
    driven_state,
    operating_point,
    optimal_tuning,
    power_sweep,
)
from qdiode.operators import (
    SIGMA_MINUS,
    SolverError,
    expectation,
    steady_state,
    vec,
)
from qdiode.single_qubit import (
    QubitParams,
    emitter_chain,
    transmission_analytic,
)
from qdiode.spectrum import inelastic_spectrum, linewidth_estimate, psd

GAMMA = 2.0 * np.pi * 70e6
DELTA = np.sqrt(1e-3)
# |-> = (|ge> - |eg>)/sqrt(2), the superradiant partner of DARK_STATE
BRIGHT_STATE = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


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

    def test_dark_bright_rates_are_python_floats(self):
        for delta in (0.1, np.float64(0.1)):
            rates = dark_bright_rates(delta, np.float64(4.0), 9.0)
            assert [type(r) for r in rates] == [float, float]

    @pytest.mark.parametrize("delta, gr1, gr2, name", [
        (np.nan, 1.0, 1.0, "delta"), (np.inf, 1.0, 1.0, "delta"),
        (0.1, -1.0, 1.0, "gr1"), (0.1, 0.0, 1.0, "gr1"),
        (0.1, 1.0, np.nan, "gr2"), (0.1, 1.0, np.inf, "gr2")])
    def test_dark_bright_rates_reject_bad_inputs(self, delta, gr1, gr2,
                                                 name):
        # NaN, a negative rate and a zero rate used to return (nan, 2.0),
        # NaN with a RuntimeWarning, and (0, 0).
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dark_bright_rates(delta, gr1, gr2)

    def test_large_delta_warns(self):
        with pytest.warns(UserWarning):
            dark_bright_rates(1.5, 1.0, 1.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_delta(self, delta):
        # A NaN delta used to pass the |delta| >= 1 check and fail every
        # later solve in the SVD.
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
        with pytest.raises(ValueError, match="delta must be finite"):
            DiodeConfig(q, q, delta)

    def test_dark_population_projector(self):
        rho_d = np.outer(DARK_STATE, DARK_STATE.conj())
        np.testing.assert_allclose(dark_state_population(rho_d), 1.0)
        rho_gg = np.zeros((4, 4)); rho_gg[0, 0] = 1.0
        np.testing.assert_allclose(dark_state_population(rho_gg), 0.0)
        with pytest.raises(ValueError):
            dark_state_population(np.eye(2))

    def test_dark_population_of_a_stack_is_each_states(self):
        # One readout serves a sweep's stack and a single state, bit for bit.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        stack = m @ m.conj().transpose(0, 2, 1)
        dark = dark_state_population(stack)
        assert dark.shape == (7,)
        alone = [dark_state_population(rho) for rho in stack]
        assert all(isinstance(d, float) for d in alone)
        assert dark.tolist() == alone
        with pytest.raises(ValueError):
            dark_state_population(np.zeros((2, 3, 4, 4)))


# ----------------------------------------------------------------------------
#                    Collective decay of the undriven pair
# ----------------------------------------------------------------------------

class TestCollectiveDecay:
    def test_dark_and_bright_population_rates(self):
        """Population decay at 2 gamma_D (slow) and gamma_B (fast)."""
        delta = 0.02
        c = ideal_diode(delta=delta)
        lv, _, _ = diode_model(c)
        gd, gb = dark_bright_rates(delta, GAMMA, GAMMA)
        from scipy.linalg import expm

        def evolve(rho, t):
            return unvec(expm(lv * t) @ vec(rho))

        rho_d = np.outer(DARK_STATE, DARK_STATE.conj())
        t_probe = 0.3 / gd
        p_d = dark_state_population(evolve(rho_d, t_probe))
        np.testing.assert_allclose(-np.log(p_d) / t_probe, 2.0 * gd,
                                   rtol=5e-3)

        rho_b = np.outer(BRIGHT_STATE, BRIGHT_STATE.conj())
        t_probe = 0.3 / gb
        p_b = np.real(BRIGHT_STATE.conj()
                      @ evolve(rho_b, t_probe) @ BRIGHT_STATE)
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
            operating_point(c, 0.05 * GAMMA)


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
        lv, x = emitter_chain([q], 1.0)[0], SIGMA_MINUS
    else:
        lv = diode_model(DiodeConfig(q, q, DELTA))[0]
        x = np.kron(SIGMA_MINUS, np.diag([1.0, 0.0]))      # |gg><eg|
    v = vec(x)
    np.testing.assert_allclose(-(v.conj() @ lv @ v).real, q.gamma_2,
                               rtol=1e-12)


# ----------------------------------------------------------------------------
#                      Scattering and nonreciprocity
# ----------------------------------------------------------------------------

class TestTransmission:
    def test_symmetric_device_is_reciprocal(self):
        """delta = 0 with dephasing: swapping the emitters maps forward to
        reverse, so transmission magnitudes must coincide."""
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA, gamma_phi=0.01 * GAMMA)
        c = DiodeConfig(q, q, 0.0)
        op = operating_point(c, 0.05 * GAMMA)
        np.testing.assert_allclose(abs(op.t_forward), abs(op.t_reverse),
                                   atol=1e-10)

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
            op = operating_point(c, power)
            results.append((abs(op.t_forward), abs(op.t_reverse)))
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
        t_two = operating_point(c, power).t_forward
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
            lv, a_out, b_out = diode_model(c, alpha, beta)
            rho = steady_state(lv)
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

    def test_dark_probabilities_are_clipped_populations(self):
        op = operating_point(ideal_diode(), 0.05 * GAMMA)
        assert op.dark_probabilities == (op.dark_population_forward,
                                         op.dark_population_reverse)
        rounded = op._replace(dark_population_forward=1.0 + 2e-16,
                              dark_population_reverse=-3e-17)
        assert rounded.dark_probabilities == (1.0, 0.0)


def drive(power_over_gbar, phase, gbar):
    return np.sqrt(power_over_gbar * gbar) * np.exp(1j * phase)


@PROPERTY
@given(lossy_devices(), powers_over_gbar, st.just(0.0) | powers_over_gbar,
       st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.booleans())
def test_flux_is_conserved_net_of_loss(c, p_a, p_b, phase_a, phase_b, swap):
    """Photons in = photons out + photons lost at gamma_nr from each excited
    emitter (the cascaded master equation of Gardiner, PRL 70, 2269 (1993));
    dephasing moves no population, so it loses no photons."""
    alpha, beta = drive(p_a, phase_a, c.gamma_bar), drive(p_b, phase_b,
                                                         c.gamma_bar)
    if swap:
        alpha, beta = beta, alpha
    s = driven_state(c, alpha, beta)
    gg, ge, eg, ee = s.populations
    lost = c.q1.gamma_nr * (eg + ee) + c.q2.gamma_nr * (ge + ee)
    photons_in = abs(alpha) ** 2 + abs(beta) ** 2
    assert abs(s.flux_a + s.flux_b + lost - photons_in) <= 1e-12 * photons_in


@PROPERTY
@given(lossy_devices(), st.floats(2.0, 4.0), powers_over_gbar)
def test_far_detuned_second_emitter_leaves_the_first_alone(c, log_detuning,
                                                            p):
    """With qubit 2 detuned by Delta_2 >> gamma, the forward transmission is
    qubit 1's closed form times the propagation phase, up to O(gamma /
    Delta_2). gamma_phi is 0: the two models disagree on the dephasing
    convention (see test_isolated_emitter_coherence_decays_at_gamma_2)."""
    detuning = 10.0 ** log_detuning * c.gamma_bar
    q1 = dataclasses.replace(c.q1, gamma_phi=0.0)
    q2 = dataclasses.replace(c.q2, gamma_phi=0.0, omega_q=detuning)
    far = DiodeConfig(q1, q2, c.delta)
    power = p * c.gamma_bar
    t_two = operating_point(far, power).t_forward / far.phase
    t_one = transmission_analytic(q1, q1.omega_q, np.sqrt(power))
    assert abs(t_two - t_one) <= max(q1.gamma_r, q2.gamma_r) / detuning


@PROPERTY
@given(lossy_devices())
def test_linear_limit_is_reciprocal_and_matches_transfer_matrices(c):
    """Nonreciprocity needs the nonlinearity: at p <= 1e-6 gamma_D the
    transmission is the same from both sides and is the transfer-matrix
    chain of two weak-drive scatterers, up to O(p / gamma_D). gamma_phi is
    0, so gamma_2 = gamma_1/2 under either model's dephasing convention
    (see test_isolated_emitter_coherence_decays_at_gamma_2)."""
    c = dataclasses.replace(c, q1=dataclasses.replace(c.q1, gamma_phi=0.0),
                            q2=dataclasses.replace(c.q2, gamma_phi=0.0))
    gamma_d = 0.5 * c.delta ** 2 * c.gamma_bar
    oracle = linear_transmission(c)
    for row in power_sweep(c, [1e-8 * gamma_d, 1e-6 * gamma_d]):
        bound = 4.0 * row.power / gamma_d + 1e-12
        assert abs(row.t_forward - row.t_reverse) <= bound
        assert abs(row.t_forward - oracle) <= bound
        assert abs(row.t_reverse - oracle) <= bound


@pytest.mark.parametrize("loss", [0.0, 0.01], ids=["lossless", "lossy"])
def test_nonreciprocity_grows_linearly_out_of_the_linear_limit(loss):
    """Dynamic reciprocity seen from the other side: out of the reciprocal
    linear limit, |t_f - t_r| grows in proportion to the power, a decade per
    decade, since the difference is the nonlinearity's first order. The
    lowest power's difference stands 100 times above the rounding term of
    the linear-limit test, so the ratios are not rounding noise."""
    c = ideal_diode(delta=0.03, gamma_nr=loss * GAMMA, gamma_phi=loss * GAMMA)
    rows = power_sweep(c, [p * c.gamma_bar for p in (1e-10, 1e-9, 1e-8)])
    gaps = [abs(r.t_forward - r.t_reverse) for r in rows]
    assert gaps[0] >= 1e-10
    np.testing.assert_allclose(np.divide(gaps[1:], gaps[:-1]), 10.0,
                               rtol=0.01)


class TestDarkStateTrapping:
    """The two limits of the forward dark-state rate balance derived in
    acceptance check 2, and the reverse population law its reverse limit
    rests on, against the full model (p in units of gamma_bar)."""

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

    @PROPERTY
    @given(log_d2=st.floats(-7.0, -4.0), log_p=st.floats(np.log10(0.003), -1.0))
    def test_reverse_population_law(self, log_d2, log_p):
        # Reverse drive cancels the pump into |+>; what is left is about
        # 0.9 p^2 + 0.5 delta^2, so it stays O(p^2) as delta -> 0.
        d2, p = 10.0 ** log_d2, 10.0 ** log_p
        c = ideal_diode(delta=np.sqrt(d2))
        pop = operating_point(c, p * c.gamma_bar).dark_population_reverse
        assert abs(pop / (0.9 * p * p + 0.5 * d2) - 1.0) <= 0.15

    @pytest.mark.parametrize("p, holds", [(0.05, True), (0.1, False)])
    def test_reverse_limit_of_check_2_depends_on_power(self, p, holds):
        # Check 2's reverse limit 5 delta^2 at delta^2 = 1e-3 holds only
        # while 0.9 p^2 stays below it; the law crosses it near p = 0.07.
        c = ideal_diode(delta=np.sqrt(1e-3))
        pop = operating_point(c, p * c.gamma_bar).dark_population_reverse
        assert (pop <= 5.0 * 1e-3) == holds


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
    def test_rows_in_input_order_with_efficiency_peak(self):
        c = ideal_diode()
        powers = np.geomspace(1e-5, 10.0, 7) * c.gamma_bar
        rows = power_sweep(c, powers)
        np.testing.assert_allclose([r.power for r in rows], powers)
        effs = [r.efficiency for r in rows]
        assert max(effs) > 0.5
        assert effs[0] < 0.1 and effs[-1] < 0.1
        assert all(r.error is None for r in rows)

    def test_a_side_argument_is_a_type_error(self, monkeypatch):
        # Every sweep solves both sides, so a call that names a side fails
        # at once, before any solve.
        def fail(*args, **kwargs):
            raise AssertionError("a sweep was solved")
        monkeypatch.setattr(diode, "_drive_sweep", fail)
        c = ideal_diode()
        with pytest.raises(TypeError):
            power_sweep(c, [0.01 * c.gamma_bar], ("forward",))

    def test_powers_must_be_one_dimensional(self):
        c = ideal_diode()
        with pytest.raises(ValueError, match=r"1-d, got shape \(2, 2\)"):
            power_sweep(c, np.full((2, 2), 0.01 * c.gamma_bar))

    def test_row_power_is_a_python_float(self):
        c = ideal_diode()
        rows = power_sweep(c, np.array([0.0, 0.01 * c.gamma_bar]))
        assert [type(r.power) for r in rows] == [float, float]

    @PROPERTY
    @given(lossy_devices(), st.integers(2, 300), st.data())
    def test_a_permuted_sweep_gives_the_permuted_rows(self, c, n, data):
        # Every power is solved on its own matrix, so the rows and the
        # diagnostics do not depend on the order of the powers.
        ps = data.draw(st.lists(st.just(0.0) | wide_powers_over_gbar,
                                min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        powers = np.array(ps) * c.gamma_bar
        info, info_permuted = {}, {}
        rows = power_sweep(c, powers, info=info)
        permuted = power_sweep(c, powers[order], info=info_permuted)
        assert [repr(r) for r in permuted] == [repr(rows[k]) for k in order]
        assert info_permuted == info

    def test_failed_rows_are_marked_not_fatal(self):
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
        c = DiodeConfig(q, q, 0.0)
        rows = power_sweep(c, [0.01 * GAMMA, 0.1 * GAMMA])
        assert len(rows) == 2
        for r in rows:
            assert r.error is not None
            assert np.isnan(r.efficiency)


def field_bytes(row):
    """Each field of a DiodeOperatingPoint bit for bit: the numbers as
    their bytes, the error message as it is."""
    out = []
    for name, value in zip(row._fields, row):
        out.append(value if name == "error" else np.asarray(value).tobytes())
    return out


class TestOnePath:
    """operating_point is a one-power power_sweep, and each side of a sweep
    row has the values of that side's own solve."""

    POWERS = [0.0, 1e-4, 0.05, 3.0]

    @staticmethod
    def lossy_diode():
        return ideal_diode(gamma_nr=0.02 * GAMMA, gamma_phi=0.01 * GAMMA,
                           gamma2_scale=0.8)

    @pytest.mark.parametrize("p", POWERS)
    def test_operating_point_is_the_sweep_row(self, p):
        c = self.lossy_diode()
        power = p * c.gamma_bar
        op = operating_point(c, power)
        assert field_bytes(op) == field_bytes(power_sweep(c, [power])[0])
        assert op.power == power and op.error is None

    @pytest.mark.parametrize("p", POWERS)
    def test_operating_point_matches_the_per_side_solves(self, p):
        # The route operating_point took before it was a sweep: one
        # _drive_sweep per direction at the one amplitude, t = 0 at p = 0.
        c = self.lossy_diode()
        power = p * c.gamma_bar
        amp = np.sqrt(power)
        solves = {side: _drive_sweep(c, [_drive(side, 1.0)], [amp])[0]
                  for side in ("forward", "reverse")}
        (t_f,) = solves["forward"][1] / amp if amp else [0.0]
        (t_r,) = solves["reverse"][2] / amp if amp else [0.0]
        (dark_f,), (dark_r,) = (dark_state_population(solves[side][0].rho)
                                for side in ("forward", "reverse"))
        t_f, t_r = complex(t_f), complex(t_r)
        want = DiodeOperatingPoint(
            power=power, t_forward=t_f, t_reverse=t_r,
            efficiency=diode_efficiency(t_f, t_r),
            dark_population_forward=float(dark_f),
            dark_population_reverse=float(dark_r))
        assert field_bytes(operating_point(c, power)) == field_bytes(want)

    @pytest.mark.parametrize("p", POWERS)
    @pytest.mark.parametrize("side", ["forward", "reverse"])
    def test_transmission_is_the_sweep_field(self, side, p):
        # A power's row in a sweep of all POWERS is its operating point's:
        # a point's values do not depend on the other points of its sweep.
        c = self.lossy_diode()
        power = p * c.gamma_bar
        field = "t_forward" if side == "forward" else "t_reverse"
        rows = power_sweep(c, np.array(self.POWERS) * c.gamma_bar)
        t = getattr(rows[self.POWERS.index(p)], field)
        assert type(t) is complex
        want = getattr(operating_point(c, power), field)
        assert np.asarray(t).tobytes() == np.asarray(want).tobytes()

    def test_failed_solve_raises_the_row_error(self):
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
        c = DiodeConfig(q, q, 0.0)
        power = 0.05 * GAMMA
        row = power_sweep(c, [power])[0]
        assert row.error
        with pytest.raises(SolverError) as caught:
            operating_point(c, power)
        assert str(caught.value) == row.error
        assert np.isnan(row[1:-1]).all()
        # Each side fails on its own.
        for side in ("forward", "reverse"):
            solved = _drive_sweep(c, [_drive(side, 1.0)],
                                  [np.sqrt(power)])[0][0]
            assert solved.error[0]
            assert np.isnan(solved.rho).all()

    @PROPERTY
    @given(lossy_devices(), wide_powers_over_gbar)
    def test_one_sided_driven_state_is_the_sweep_row(self, c, p):
        # A drive from one side alone is the power_sweep side at any flux,
        # so each side's values depend on that side alone; neither route
        # builds a model with a strong drive's rounding in it.
        power = p * c.gamma_bar
        row = power_sweep(c, [power])[0]
        assert row.error is None, row.error
        amp = np.sqrt(power)
        for drive, want in (((amp, 0.0), row.dark_population_forward),
                            ((0.0, amp), row.dark_population_reverse)):
            got = driven_state(c, *drive).dark_population
            assert got == want

    @PROPERTY
    @given(lossy_devices(), wide_powers_over_gbar, sides)
    def test_one_sided_drive_solve_is_the_side_solve(self, c, p, side):
        # The single-point solve of a drive from one side is the sweep's
        # one-power state of that side, bit for bit.
        amp = np.sqrt(p * c.gamma_bar)
        solved = _drive_sweep(c, [_drive(side, 1.0)], [amp])[0][0]
        assert solved.error[0] is None, solved.error[0]
        rho = driven_state(c, *_drive(side, amp)).rho
        assert np.array_equal(rho, solved.rho[0])

    @PROPERTY
    @given(lossy_devices(), powers_over_gbar, st.just(0.0) | powers_over_gbar,
           st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.booleans())
    def test_driven_state_model_is_the_model_its_state_solves(
            self, c, p_a, p_b, phase_a, phase_b, swap):
        alpha, beta = (drive(p_a, phase_a, c.gamma_bar),
                       drive(p_b, phase_b, c.gamma_bar))
        if swap:
            alpha, beta = beta, alpha
        state = driven_state(c, alpha, beta)
        lv = state.model[0]
        # steady_states' residual bound, in either coordinates.
        assert (np.linalg.norm(lv @ vec(state.rho))
                <= 1e-9 * max(np.linalg.norm(lv), 1.0))
        # Formed from the builds at 0 and unit amplitude, the model is the
        # direct build to rounding: at most 4.3e-16 of its largest entry
        # over 2000 such draws.
        for got, want in zip(state.model, diode_model(c, alpha, beta)):
            assert (np.max(np.abs(got - want))
                    <= 1e-14 * np.max(np.abs(want)))

    @settings(PROPERTY, max_examples=20)
    @given(lossy_devices(), powers_over_gbar, sides,
           st.sampled_from(["transmitted", "reflected"]))
    def test_psd_is_the_spectrum_of_the_driven_state(self, c, p, side, port):
        power = p * c.gamma_bar
        state = driven_state(c, *_drive(side, np.sqrt(power)))
        lv, a_out, b_out = state.model
        out_op = (a_out if (side == "forward") == (port == "transmitted")
                  else b_out)
        est = linewidth_estimate(c)
        grid = np.linspace(-16.0 * est, 16.0 * est, 81)
        want = inelastic_spectrum(lv, state.rho, out_op, grid)
        # psd clips the rounding below zero, as its negative-value gate
        # allows.
        want = np.where(want < 0.0, 0.0, want)
        got = psd(c, side, port, power, grid).inelastic_psd
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def assemblies(monkeypatch):
        """Log the number of jumps of each Liouvillian assembly."""
        jumps = []
        inner = diode.liouvillian_matrix

        def counted(h, jump_list):
            jumps.append(len(jump_list))
            return inner(h, jump_list)
        monkeypatch.setattr(diode, "liouvillian_matrix", counted)
        return jumps

    @pytest.mark.parametrize("solve", ["driven_state", "psd"])
    def test_two_model_builds_per_solve(self, solve, monkeypatch):
        # The sweep builds the model's terms at 0 and 1, and the output
        # fields (and psd's L) are formed from those two builds; L(0) is
        # assembled with its dissipators, L(1) - L(0) from H alone.
        builds = []
        inner = diode._chain_terms

        def counted(*args):
            builds.append(args)
            return inner(*args)
        monkeypatch.setattr(diode, "_chain_terms", counted)
        jumps = self.assemblies(monkeypatch)
        c = self.lossy_diode()
        if solve == "driven_state":
            driven_state(c, *np.sqrt(c.gamma_bar) * np.array([0.3, 0.1j]))
        else:
            est = linewidth_estimate(c)
            psd(c, "forward", "transmitted", 0.05 * c.gamma_bar,
                np.linspace(-10.0 * est, 10.0 * est, 41))
        assert len(builds) == 2
        assert [n > 0 for n in jumps] == [True, False]

    @pytest.mark.parametrize("solve", ["operating_point", "power_sweep"])
    def test_sweep_assembles_the_dissipators_once(self, solve, monkeypatch):
        # Both sides share the model at 0, the one assembly with the
        # dissipators; each side adds the commutator of its drive.
        jumps = self.assemblies(monkeypatch)
        c = self.lossy_diode()
        if solve == "operating_point":
            operating_point(c, 0.05 * c.gamma_bar)
        else:
            power_sweep(c, np.geomspace(1e-4, 10.0, 400) * c.gamma_bar)
        assert [n > 0 for n in jumps] == [True, False, False]

    def test_no_sweep_starts_a_thread(self, monkeypatch):
        # The sides are solved in turn in the calling thread, at any length
        # and however many CPUs the process may use.
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)

        def no_start(self):
            raise AssertionError(f"thread {self.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        c = self.lossy_diode()
        powers = np.geomspace(1e-4, 10.0, 400) * c.gamma_bar
        operating_point(c, powers[200])
        for n in (1, 127, 128, 400):
            power_sweep(c, powers[:n])


NON_FINITE_AMPLITUDES = [np.nan, np.inf, -np.inf, complex(1.0, np.nan)]


class TestBadPowers:
    """Negative and non-finite powers are named in a ValueError before any
    steady state is solved (np.sqrt would otherwise hand the solver NaN),
    and so are non-finite amplitudes, before any model is built."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a steady state was solved")
        monkeypatch.setattr("qdiode.diode.pencil_states", fail)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_operating_point_rejects(self, bad, no_solve):
        with pytest.raises(ValueError, match=f"got {bad}"):
            operating_point(ideal_diode(), bad)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_power_sweep_rejects_up_front(self, bad, no_solve):
        c = ideal_diode()
        with pytest.raises(ValueError, match=f"got {bad}"):
            power_sweep(c, [0.01 * c.gamma_bar, bad])

    @pytest.mark.parametrize("bad", NON_FINITE_AMPLITUDES)
    def test_driven_state_rejects_non_finite_amplitude(self, bad,
                                                       monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a model was built")
        monkeypatch.setattr(diode, "_chain_terms", fail)
        c = ideal_diode()
        with pytest.raises(ValueError, match="amplitude alpha must be finite"):
            driven_state(c, bad, 0.0)
        with pytest.raises(ValueError, match="amplitude beta must be finite"):
            driven_state(c, 1.0, bad)

    def test_zero_power_still_allowed(self):
        c = ideal_diode()
        op = operating_point(c, 0.0)
        assert op.t_forward == 0 and op.t_reverse == 0
        assert op.error is None
        assert power_sweep(c, [0.0])[0].error is None
