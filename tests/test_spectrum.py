"""Emission spectra: resolvent spectra and line fitting.

Oracles here avoid the code path under test wherever possible: the resolvent
spectrum is checked against an eigendecomposition route, the fitted
linewidth against the slow Liouvillian eigenvalue, and resonance
fluorescence against the standard strong-drive results (central width
gamma, sidebands at the effective Rabi frequency with width 3 gamma / 2).
"""

import numpy as np
import pytest
from device_strategies import PROPERTY, lossy_devices, powers_over_gbar, sides
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (broadcast_stack_spectrum, integrated_inelastic,
                     resolvent_spectrum_50_digits)

from qdiode import fitting
from qdiode.diode import DiodeConfig, _drive, diode_model, optimal_tuning
from qdiode.operators import (_hermitian_coordinates, expectation, real_form,
                              steady_state, vec)
from qdiode.single_qubit import QubitParams, emitter_chain
from qdiode.spectrum import (
    LorentzianFit,
    SpectrumError,
    SpectrumResult,
    _lower_decile,
    _prominent_peak_count,
    fit_lorentzian,
    inelastic_spectrum,
    linewidth_estimate,
    predicted_linewidth,
    psd,
)

GAMMA = 1.0
DELTA = np.sqrt(1e-3)
POWER = 0.05                      # drive photon flux in units of GAMMA
AMP = np.sqrt(POWER)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def ideal_diode(delta=DELTA, gamma_nr=0.0, gamma_phi=0.0):
    w1, w2 = optimal_tuning(delta, GAMMA)
    q1 = QubitParams(omega_q=w1, gamma_r=GAMMA, gamma_nr=gamma_nr,
                     gamma_phi=gamma_phi)
    q2 = QubitParams(omega_q=w2, gamma_r=GAMMA, gamma_nr=gamma_nr,
                     gamma_phi=gamma_phi)
    return DiodeConfig(q1, q2, delta)


# ----------------------------------------------------------------------------
#                          Device output spectra
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def forward_psd_wide():
    """Forward transmitted-field PSD on a wide nonuniform symmetric grid."""
    c = ideal_diode()
    est = linewidth_estimate(c)
    dense = np.linspace(0.0, 30.0 * est, 1200)
    coarse = np.geomspace(30.0 * est, 8.0 * 2.0 * GAMMA, 800)
    pos = np.unique(np.concatenate([dense, coarse]))
    grid = np.concatenate([-pos[::-1][:-1], pos])
    return c, psd(c, "forward", "transmitted", POWER, grid)


@pytest.fixture(scope="module")
def forward_psd_narrow():
    c = ideal_diode()
    pred = predicted_linewidth(DELTA, GAMMA, 0.0, 0.0)
    grid = np.linspace(-8.0 * pred, 8.0 * pred, 401)
    return c, psd(c, "forward", "transmitted", POWER, grid)


class TestDevicePsd:
    def test_elastic_plus_inelastic_matches_flux(self, forward_psd_wide):
        c, s = forward_psd_wide
        lv, a_out, _ = diode_model(c, AMP)
        rho = steady_state(lv)
        flux = expectation(a_out.conj().T @ a_out, rho).real
        total = s.elastic_weight + integrated_inelastic(s)
        np.testing.assert_allclose(total, flux, rtol=1e-3)

    def test_psd_nonnegative(self, forward_psd_wide):
        _, s = forward_psd_wide
        assert np.min(s.inelastic_psd) >= 0.0

    def test_narrow_line_matches_slow_liouvillian_mode(self, forward_psd_narrow):
        c, s = forward_psd_narrow
        fit = fit_lorentzian(s)
        evals = np.linalg.eigvals(diode_model(c, AMP)[0])
        nonzero = evals[np.abs(evals.real) > 1e-12 * GAMMA]
        slow = nonzero[np.argmin(np.abs(nonzero.real))]
        np.testing.assert_allclose(fit.fwhm, 2.0 * abs(slow.real), rtol=0.02)

    def test_line_center_near_drive(self, forward_psd_narrow):
        _, s = forward_psd_narrow
        fit = fit_lorentzian(s)
        assert abs(fit.center) < 0.2 * fit.fwhm

    def test_plateau_line_twice_predicted_width(self, forward_psd_narrow):
        # The line is twice the bare-rate value 2 (3 gamma_D) that the
        # predicted_linewidth formula once used; with the dressed out-rate
        # of |+> the formula is 2 (6 gamma_D). At the high-efficiency drive
        # power, inside the formula's window, the fitted width is 0.97 of
        # it. The eigenvalue check above is the route-independent width
        # test.
        _, s = forward_psd_narrow
        fit = fit_lorentzian(s)
        np.testing.assert_allclose(
            fit.fwhm, predicted_linewidth(DELTA, GAMMA, 0.0, 0.0), rtol=0.10)

    def test_elastic_weight_is_coherent_flux(self, forward_psd_wide):
        c, s = forward_psd_wide
        lv, a_out, _ = diode_model(c, AMP)
        rho = steady_state(lv)
        np.testing.assert_allclose(s.elastic_weight,
                                   abs(expectation(a_out, rho)) ** 2,
                                   rtol=1e-10)

    def test_reverse_reflected_runs(self):
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-10.0 * est, 10.0 * est, 65)
        s = psd(c, "reverse", "reflected", POWER, grid)
        assert np.all(np.isfinite(s.inelastic_psd))
        assert np.min(s.inelastic_psd) >= 0.0


def spectrum_via_eig(lv, rho, out_op, omegas):
    """Independent route: S(omega) = -(1/pi) Re sum_k C_k / (lambda_k + i omega)
    over the nonzero Liouvillian modes, with g(tau) = sum_k C_k e^{lambda_k tau}."""
    evals, evecs = np.linalg.eig(lv)
    c_k = (vec(out_op).conj() @ evecs) * np.linalg.solve(evecs, vec(out_op @ rho))
    keep = np.arange(evals.size) != np.argmin(np.abs(evals))
    terms = c_k[keep, None] / (evals[keep, None] + 1j * omegas[None, :])
    return -terms.sum(axis=0).real / np.pi


class TestResolventMatchesEigendecomposition:
    @pytest.mark.parametrize("alpha, beta", [(AMP, 0.0), (0.0, AMP)],
                             ids=["a", "b"])
    def test_diode_ports(self, alpha, beta):
        # Forward/transmitted (alpha driven) and reverse/reflected (beta
        # driven) both observe the a_out field.
        c = ideal_diode()
        lv, a_out, _ = diode_model(c, alpha, beta)
        rho = steady_state(lv)
        pred = predicted_linewidth(DELTA, GAMMA, 0.0, 0.0)
        for grid in (np.linspace(-8.0 * pred, 8.0 * pred, 401),
                     np.linspace(-10.0 * GAMMA, 10.0 * GAMMA, 401)):
            s = inelastic_spectrum(lv, rho, a_out, grid)
            ref = spectrum_via_eig(lv, rho, a_out, grid)
            assert np.max(np.abs(s - ref)) <= 1e-9 * ref.max()

    def test_strongly_driven_emitter(self, fluorescence):
        lv, rho, omega_eff = fluorescence
        grid = np.linspace(-2.0 * omega_eff, 2.0 * omega_eff, 801)
        s = inelastic_spectrum(lv, rho, SIGMA_MINUS, grid)
        ref = spectrum_via_eig(lv, rho, SIGMA_MINUS, grid)
        assert np.max(np.abs(s - ref)) <= 1e-9 * ref.max()


def drawn_port(c, p_over_gbar, side, port):
    """(L, steady state, output operator) of one port of a drawn device."""
    lv, a_out, b_out = diode_model(
        c, *_drive(side, np.sqrt(p_over_gbar * c.gamma_bar)))
    # A forward drive is transmitted into a_out, a reverse one into b_out.
    out_op = a_out if (side == "forward") == (port == "transmitted") else b_out
    return lv, steady_state(lv), out_op


def drawn_spectra(c, p_over_gbar, side, port):
    """(resolvent, broadcast-stack, eigendecomposition) spectra of one port
    of a drawn device, on a grid of 16 linewidth estimates and one of
    +-10 gamma_bar; both are odd, so omega = 0 is on them."""
    lv, rho, out_op = drawn_port(c, p_over_gbar, side, port)
    est = linewidth_estimate(c)
    for grid in (np.linspace(-16.0 * est, 16.0 * est, 81),
                 np.linspace(-10.0 * c.gamma_bar, 10.0 * c.gamma_bar, 81)):
        yield (inelastic_spectrum(lv, rho, out_op, grid),
               broadcast_stack_spectrum(lv, rho, out_op, grid),
               spectrum_via_eig(lv, rho, out_op, grid))


ports = st.sampled_from(["transmitted", "reflected"])


class TestResolventOnDrawnDevices:
    @settings(PROPERTY, max_examples=10)
    @given(lossy_devices(), powers_over_gbar, sides, ports)
    def test_as_accurate_as_the_lu_solve(self, c, p, side, port):
        # The eigenvector route and an LU solve of the shifted matrices
        # round differently, so each is held to a 50-digit solve of the same
        # double-precision inputs: at the line centre, at one linewidth
        # estimate (about the narrow line's half width) and at the edge of
        # the narrow grid.
        lv, rho, out_op = drawn_port(c, p, side, port)
        est = linewidth_estimate(c)
        omegas = np.array([0.0, est, 16.0 * est])
        exact = resolvent_spectrum_50_digits(lv, rho, out_op, omegas)
        peak = np.max(np.abs(broadcast_stack_spectrum(
            lv, rho, out_op, np.linspace(-16.0 * est, 16.0 * est, 81))))
        # Each route's error is its largest over the three frequencies.
        err = np.max(np.abs(inelastic_spectrum(lv, rho, out_op, omegas)
                            - exact))
        err_lu = np.max(np.abs(broadcast_stack_spectrum(lv, rho, out_op,
                                                        omegas) - exact))
        assert err <= 2.0 * err_lu + np.finfo(float).eps * peak

    @PROPERTY
    @given(lossy_devices(), powers_over_gbar, sides, ports)
    def test_matches_the_eigendecomposition(self, c, p, side, port):
        # The eigendecomposition route loses about eps * gamma_bar / gamma_D
        # relative to the peak: 5.7e-10 at most over the drawn examples.
        for s, _, ref in drawn_spectra(c, p, side, port):
            assert np.max(np.abs(s - ref)) <= 1e-8 * np.max(np.abs(ref))


class TestNearDefectiveGenerators:
    """The pole-residue route where the eigenvectors of L are close to
    dependent, and where they do not span."""

    def test_mollow_exceptional_point(self):
        # A resonant emitter driven at Rabi frequency gamma_r / 4: two
        # eigenvalues of L meet at -3 gamma_r / 4, and cond(V) is about 7e7.
        # Unrefined, the pole-residue sum is off by 2.3e-9 of the peak, with
        # a backward error of 1.4e-9; one refinement step brings both to
        # rounding.
        q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
        lv, _, _ = emitter_chain([q], 1.0, 1.0 / (4.0 * np.sqrt(2.0)))
        rho = steady_state(lv)
        grid = np.linspace(-3.0 * GAMMA, 3.0 * GAMMA, 401)
        ref = broadcast_stack_spectrum(lv, rho, SIGMA_MINUS, grid)
        s = inelastic_spectrum(lv, rho, SIGMA_MINUS, grid)
        assert np.max(np.abs(s - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_jordan_block_is_refused(self):
        # A Hermiticity-preserving superoperator whose shifted real form is
        # one 4 x 4 Jordan block: its eigenvectors do not span, and the
        # refined backward error is of order 1.
        u = _hermitian_coordinates(2)
        rho = np.diag([1.0, 0.0]).astype(complex)
        jordan = -np.eye(4) + np.diag(np.ones(3), 1)
        projector = real_form(np.outer(vec(rho), vec(np.eye(2))))
        lv = u.conj().T @ (jordan + projector) @ u
        with pytest.raises(SpectrumError, match="backward error"):
            inelastic_spectrum(lv, rho, SIGMA_MINUS.T.copy(),
                               np.linspace(-2.0, 2.0, 41))


class TestPsdValidation:
    def test_asymmetric_grid_rejected(self):
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-5.0 * est, 9.0 * est, 33)
        with pytest.raises(ValueError, match="symmetric"):
            psd(c, "forward", "transmitted", POWER, grid)

    def test_narrow_span_rejected(self):
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-2.0 * est, 2.0 * est, 33)
        with pytest.raises(ValueError, match="span"):
            psd(c, "forward", "transmitted", POWER, grid)

    def test_tiny_grid_rejected(self):
        c = ideal_diode()
        est = linewidth_estimate(c)
        with pytest.raises(ValueError, match="grid too small"):
            psd(c, "forward", "transmitted", POWER,
                np.linspace(-9 * est, 9 * est, 5))

    def test_unknown_port_rejected(self):
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-9 * est, 9 * est, 33)
        with pytest.raises(ValueError, match="port"):
            psd(c, "forward", "sideways", POWER, grid)

    def test_unknown_direction_rejected(self):
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-9 * est, 9 * est, 33)
        with pytest.raises(ValueError, match="direction"):
            psd(c, "up", "transmitted", POWER, grid)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_power_rejected_before_solve(self, bad, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a steady state was solved")
        monkeypatch.setattr("qdiode.diode.pencil_states", fail)
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-9 * est, 9 * est, 33)
        with pytest.raises(ValueError, match=f"got {bad}"):
            psd(c, "forward", "transmitted", bad, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected_before_solve(self, bad, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a steady state was solved")
        monkeypatch.setattr("qdiode.diode.pencil_states", fail)
        c = ideal_diode()
        est = linewidth_estimate(c)
        grid = np.linspace(-9 * est, 9 * est, 33)
        grid[[3, -4]] = bad, -bad
        with pytest.raises(ValueError, match="frequency grid must be finite"):
            psd(c, "forward", "transmitted", POWER, grid)


# ----------------------------------------------------------------------------
#               Resonance fluorescence of a single emitter
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fluorescence():
    """Strongly driven single emitter: Liouvillian, steady state, Rabi frequency."""
    q = QubitParams(omega_q=0.0, gamma_r=GAMMA)
    alpha = np.sqrt(25.0 * GAMMA)
    lv, _, _ = emitter_chain([q], 1.0, alpha)
    rho = steady_state(lv)
    omega_eff = np.sqrt(2.0 * GAMMA) * alpha
    return lv, rho, omega_eff


class TestStrongDriveFluorescence:
    def test_central_peak_width(self, fluorescence):
        lv, rho, _ = fluorescence
        omegas = np.linspace(-2.5 * GAMMA, 2.5 * GAMMA, 501)
        s = inelastic_spectrum(lv, rho, SIGMA_MINUS, omegas)
        fit = fit_lorentzian(SpectrumResult(0.0, omegas, s))
        np.testing.assert_allclose(fit.fwhm, GAMMA, rtol=0.03)

    def test_sideband_position(self, fluorescence):
        lv, rho, omega_eff = fluorescence
        omegas = np.linspace(omega_eff - 3.0 * GAMMA, omega_eff + 3.0 * GAMMA, 501)
        s = inelastic_spectrum(lv, rho, SIGMA_MINUS, omegas)
        fit = fit_lorentzian(SpectrumResult(0.0, omegas - omega_eff, s))
        np.testing.assert_allclose(omega_eff + fit.center, omega_eff, rtol=0.03)

    def test_sideband_width(self, fluorescence):
        lv, rho, omega_eff = fluorescence
        omegas = np.linspace(omega_eff - 3.0 * GAMMA, omega_eff + 3.0 * GAMMA, 501)
        s = inelastic_spectrum(lv, rho, SIGMA_MINUS, omegas)
        fit = fit_lorentzian(SpectrumResult(0.0, omegas - omega_eff, s))
        np.testing.assert_allclose(fit.fwhm, 1.5 * GAMMA, rtol=0.05)


# ----------------------------------------------------------------------------
#                       Lorentzian fitting and prediction
# ----------------------------------------------------------------------------

def lorentzian(w, a, center, hw, offset):
    return a * hw * hw / ((w - center) ** 2 + hw * hw) + offset


class TestFitLorentzian:
    def test_recovers_synthetic_parameters(self):
        w = np.linspace(-10.0, 10.0, 601)
        y = lorentzian(w, a=2.4, center=0.7, hw=0.9, offset=0.05)
        fit = fit_lorentzian(SpectrumResult(0.0, w, y))
        np.testing.assert_allclose(fit.center, 0.7, rtol=1e-6)
        np.testing.assert_allclose(fit.fwhm, 1.8, rtol=1e-6)
        np.testing.assert_allclose(fit.peak_height, 2.4, rtol=1e-6)
        np.testing.assert_allclose(fit.offset, 0.05, atol=1e-7)
        np.testing.assert_allclose(fit.area, np.pi * 2.4 * 0.9, rtol=1e-6)

    def test_recovers_width_under_white_noise(self):
        rng = np.random.default_rng(12)
        w = np.linspace(-10.0, 10.0, 401)
        clean = lorentzian(w, a=1.0, center=0.0, hw=0.9, offset=0.0)
        noisy = clean + 0.02 * clean.max() * rng.standard_normal(w.size)
        fit = fit_lorentzian(SpectrumResult(0.0, w, noisy))
        np.testing.assert_allclose(fit.fwhm, 1.8, rtol=0.05)

    def test_flat_spectrum_rejected(self):
        w = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(SpectrumError, match="flat"):
            fit_lorentzian(SpectrumResult(0.0, w, np.full(101, 0.3)))

    def test_maximum_on_grid_edge_rejected(self):
        w = np.linspace(0.0, 10.0, 201)
        with pytest.raises(SpectrumError, match="no interior peak"):
            fit_lorentzian(SpectrumResult(0.0, w, lorentzian(w, 1.0, 0.0, 1.0, 0.0)))

    def test_multimodal_spectrum_rejected(self):
        w = np.linspace(-10.0, 10.0, 801)
        y = lorentzian(w, 1.0, -4.0, 0.5, 0.0) + lorentzian(w, 1.0, 4.0, 0.5, 0.0)
        with pytest.raises(SpectrumError, match="unimodal"):
            fit_lorentzian(SpectrumResult(0.0, w, y))

    def test_area_matches_integral(self):
        w = np.linspace(-200.0, 200.0, 4001)
        y = lorentzian(w, 1.7, 0.0, 1.2, 0.0)
        fit = fit_lorentzian(SpectrumResult(0.0, w, y))
        np.testing.assert_allclose(fit.area, np.trapezoid(y, w), rtol=1e-2)

    def test_with_fit_leaves_original_unchanged(self):
        w = np.linspace(-10.0, 10.0, 201)
        s = SpectrumResult(0.0, w, lorentzian(w, 1.0, 0.0, 1.0, 0.0))
        fitted = s._replace(fitted=fit_lorentzian(s))
        assert s.fitted is None
        assert isinstance(fitted.fitted, LorentzianFit)


    def test_evaluation_cap_is_a_spectrum_error(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 2)
        w = np.linspace(-10.0, 10.0, 201)
        y = lorentzian(w, 1.0, 0.3, 1.1, 0.02)
        with pytest.raises(SpectrumError, match="fit failed: evaluation cap"):
            fit_lorentzian(SpectrumResult(0.0, w, y))

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 41, 401])
    def test_lower_decile_is_numpy_percentile(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3)
            assert _lower_decile(y) == np.percentile(y, 10)


class TestLorentzianMatchesScipy:
    """fit_lorentzian against scipy.optimize.least_squares, imported only
    here as the reference: trust-region reflective with a 3-point Jacobian
    and tolerances of 1e-15, started from the generating parameters, on a
    seeded set of clean and noisy lines in physical units."""

    @pytest.mark.parametrize("k", range(20))
    def test_line(self, k):
        from scipy.optimize import least_squares

        rng = np.random.default_rng(300 + k)
        span = rng.uniform(5.0, 40.0) * 1e6
        w = np.linspace(-0.5, 0.5, int(rng.integers(41, 802))) * span
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        true = [a, rng.uniform(-0.1, 0.1) * span,
                rng.uniform(0.02, 0.15) * span, a * rng.uniform(0.0, 0.3)]
        y = lorentzian(w, *true)
        if k % 2:
            y = y + 0.02 * a * rng.standard_normal(w.size)
        fit = fit_lorentzian(SpectrumResult(0.0, w, y))
        ref = least_squares(lambda p: lorentzian(w, *p) - y, true,
                            jac="3-point", x_scale="jac", ftol=1e-15,
                            xtol=1e-15, gtol=1e-15)
        ra, rc, rhw, ro = ref.x
        rhw = abs(rhw)
        np.testing.assert_allclose(fit.peak_height, ra, rtol=1e-7)
        np.testing.assert_allclose(fit.fwhm, 2.0 * rhw, rtol=1e-7)
        assert abs(fit.center - rc) <= 1e-7 * rhw
        assert abs(fit.offset - ro) <= 1e-7 * ra
        assert fit.residual_norm <= max(np.linalg.norm(ref.fun)
                                        * (1.0 + 1e-10), 1e-12 * a)


class TestProminentPeakCount:
    """The numpy peak count against scipy.signal.find_peaks, the reference
    it replaces (imported here only as that reference)."""

    @staticmethod
    def reference(x, h):
        from scipy.signal import find_peaks
        return find_peaks(x, prominence=h)[0].size

    @pytest.mark.parametrize("x, h, expected", [
        ([0, 1, 1, 1, 0], 1.0, 1),            # plateau entered and left
        ([0, 1, 1, 2, 2, 1, 0], 2.0, 1),      # stepped plateau
        ([0, 2, 2, 2], 0.0, 0),               # plateau running into the edge
        ([3, 1, 2, 0], 0.0, 1),               # edge maximum is no peak
        ([5, 4, 3, 2], 0.0, 0),               # monotone: maximum at the edge
        ([0, 2, 1, 2, 0], 2.0, 2),            # twin peaks of equal height:
        ([0, 2, 1, 2, 0], 2.5, 0),            # neither stops the other's walk
        ([0, 3, 1, 2, 0], 3.0, 1),            # prominence equals the threshold
        ([0, 3, 1, 2, 0], 3.0 + 1e-12, 0),
        ([0, 3, 1, 2, 0], 1.0, 2),            # lower peak: base 1 behind the 3
        ([0, 3, 1, 2, 0], 1.0 + 1e-12, 1),
        ([1, 0, 4, 0, 2, 0, 3, 1], 2.0, 3),   # bases behind higher neighbours
        ([], 0.0, 0),
        ([1.0], 0.0, 0),
    ])
    def test_cases(self, x, h, expected):
        x = np.asarray(x, dtype=float)
        assert _prominent_peak_count(x, h) == expected
        assert self.reference(x, h) == expected

    def test_random_arrays(self):
        rng = np.random.default_rng(2024)
        for k in range(2000):
            n = int(rng.integers(3, 40))
            if k % 2:
                x = rng.integers(0, 4, n).astype(float)      # plateaus
            else:
                x = rng.standard_normal(n)
            h = float(rng.uniform(0.0, 2.0)) * float(x.max() - x.min())
            assert _prominent_peak_count(x, h) == self.reference(x, h), (x, h)

    def test_smoothed_noisy_line(self):
        rng = np.random.default_rng(7)
        w = np.linspace(-10.0, 10.0, 401)
        y = lorentzian(w, 1.0, 0.0, 0.9, 0.0) + 0.05 * rng.standard_normal(w.size)
        for h in (0.0, 0.01, 0.15, 0.5):
            assert _prominent_peak_count(y, h) == self.reference(y, h)


class TestPredictedLinewidth:
    def test_closed_form(self):
        delta, gbar, gnr, gphi = 0.05, 2.0, 0.3, 0.1
        gamma_d = 0.5 * delta ** 2 * gbar
        expected = 2.0 * (6.0 * gamma_d + gnr + 2.0 * gphi)
        np.testing.assert_allclose(
            predicted_linewidth(delta, gbar, gnr, gphi), expected)

    @pytest.mark.parametrize("nr_over_d, phi_over_d",
                             [(0, 0), (1, 0), (0, 1), (2, 1), (4, 0), (0, 4)])
    def test_half_width_is_slowest_rate_in_window(self, nr_over_d,
                                                  phi_over_d):
        # Inside delta^2 gbar << p << gbar the dark-state population relaxes
        # at Gamma_in + Gamma_out = 6 gamma_D + gamma_nr + 2 gamma_phi, the
        # slowest nonzero Liouvillian rate.
        delta, p = 1e-3, 5e-4
        gamma_d = 0.5 * delta ** 2 * GAMMA
        gnr, gphi = nr_over_d * gamma_d, phi_over_d * gamma_d
        c = ideal_diode(delta=delta, gamma_nr=gnr, gamma_phi=gphi)
        amp = np.sqrt(p * GAMMA)
        evals = np.linalg.eigvals(diode_model(c, amp)[0])
        nonzero = evals[np.abs(evals.real) > 1e-12 * GAMMA]
        slowest = np.min(np.abs(nonzero.real))
        np.testing.assert_allclose(
            slowest, 0.5 * predicted_linewidth(delta, GAMMA, gnr, gphi),
            rtol=0.01)

    def test_estimate_has_floor(self):
        c = ideal_diode(delta=1e-9)
        np.testing.assert_allclose(linewidth_estimate(c), 1e-6 * c.gamma_bar)

    def test_integrated_inelastic_is_trapezoid(self):
        w = np.linspace(-3.0, 3.0, 61)
        y = np.exp(-w ** 2)
        s = SpectrumResult(0.0, w, y)
        np.testing.assert_allclose(integrated_inelastic(s),
                                   np.trapezoid(y, w))

    def test_width_scales_with_delta_squared(self):
        widths = []
        for d2 in (1e-3, 3e-3):
            delta = np.sqrt(d2)
            c = ideal_diode(delta=delta)
            pred = predicted_linewidth(delta, GAMMA, 0.0, 0.0)
            grid = np.linspace(-8.0 * pred, 8.0 * pred, 301)
            fit = fit_lorentzian(psd(c, "forward", "transmitted", POWER,
                                     grid))
            widths.append(fit.fwhm)
        np.testing.assert_allclose(widths[1] / widths[0], 3.0, rtol=0.15)
