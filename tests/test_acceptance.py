"""Acceptance battery: twelve headline checks, one scorecard line each.

Every test measures one published behavior of the device model end to end
and records a single pass/fail line with the numbers it saw (the conftest
hook prints the collected scorecard after the run). Tolerances are stated
inline next to each check. Ideal-device checks work in units of the
geometric-mean radiative rate; the dimensioned checks use the measured
rate sets of a representative two-qubit device at its two characterized
operating frequencies.
"""

import filecmp
import json

import numpy as np
import pytest

import scorecard
from oracles import integrated_inelastic, transmission_numeric
from qdiode.cli import run
from qdiode.diode import (
    DiodeConfig,
    diode_model,
    operating_point,
    optimal_tuning,
    power_sweep,
)
from qdiode.fitting import FitError, fit_single_qubit
from qdiode.mirror import variance_vs_power
from qdiode.operators import expectation, steady_state
from qdiode.single_qubit import QubitParams, transmission_analytic
from qdiode.spectrum import fit_lorentzian, predicted_linewidth, psd

TWO_PI = 2.0 * np.pi

# Measured rates of the reference device (rad/s).
RATES_A = {                       # lower operating frequency, two qubits
    "gamma_r1": TWO_PI * 71.3039e6,
    "gamma_r2": TWO_PI * 72.4299e6,
    "gamma_nr": TWO_PI * 191.1e3,
    "gamma_phi": TWO_PI * 211.4e3,
}
RATES_B = {                       # upper operating frequency, single qubit
    "gamma_r": TWO_PI * 73.1158e6,
    "gamma_nr": TWO_PI * 64.0e3,
    "gamma_phi": TWO_PI * 74.7e3,
}

PLATEAU_POWER = 0.05              # p / gamma_bar at the canonical optimum


def ideal_device(delta, gamma_nr=0.0, gamma_phi=0.0,
                 gamma_r1=1.0, gamma_r2=1.0):
    gbar = np.sqrt(gamma_r1 * gamma_r2)
    w1, w2 = optimal_tuning(delta, gbar)
    q1 = QubitParams(omega_q=w1, gamma_r=gamma_r1, gamma_nr=gamma_nr,
                     gamma_phi=gamma_phi)
    q2 = QubitParams(omega_q=w2, gamma_r=gamma_r2, gamma_nr=gamma_nr,
                     gamma_phi=gamma_phi)
    return DiodeConfig(q1, q2, delta)


@pytest.fixture(scope="module")
def plateau_op():
    """Both-direction steady state of the ideal device at the optimum."""
    c = ideal_device(np.sqrt(1e-3))
    return operating_point(c, PLATEAU_POWER * c.gamma_bar)


# ----------------------------------------------------------------------------
#                           The twelve checks
# ----------------------------------------------------------------------------

def test_plateau_transmission_window(plateau_op):
    """1: ideal device at delta^2 = 1e-3, p/gbar = 0.05 -> |t_fwd| in
    [0.61, 0.70], |t_rev| <= 0.05, efficiency in [0.55, 0.67]."""
    op = plateau_op
    tf, tr, eff = abs(op.t_forward), abs(op.t_reverse), op.efficiency
    ok = (0.61 <= tf <= 0.70) and (tr <= 0.05) and (0.55 <= eff <= 0.67)
    detail = f"|t_fwd| = {tf:.4f}, |t_rev| = {tr:.4f}, efficiency = {eff:.4f}"
    assert scorecard.record(1, ok, detail), detail


def test_dark_state_trapping(plateau_op):
    """2: same operating point -> forward dark population within 3 delta^2
    of 2/3 - (4/9) p/gbar - (2/9) gamma_D/p, reverse <= 5 delta^2.

    The forward population reaches 2/3 only for delta^2 gbar << p << gbar;
    the target keeps the first order in both small ratios, with
    gamma_D = delta^2 gbar / 2. Derivation, in units gbar = 1, with forward
    amplitude alpha = sqrt(p) at optimal tuning: to first order in delta
    the master equation is the bright ladder |gg>, |->, |ee> with lowering
    operator J = |gg><-| - |-><ee|, plus |+> with K = |gg><+| + |+><ee|:

        H = i alpha (J^+ - J) + V - delta (|-><-| + |ee><ee|),
        V = (delta/2) (|+><-| + |-><+|) + (alpha delta/2) (K + K^+),
        jump operators sqrt(2) J and sqrt(gamma_D) K.

    V alone couples |+> to the ladder; the ladder's detuning delta changes
    the rates below at relative order delta and is dropped. At V = 0 the
    ladder relaxes at rates ~1 to its driven steady state

        rho_B = [(1 + p + p^2) |gg><gg| + (p + p^2) |-><-| + p^2 |ee><ee|
                 + (alpha (1 + p) |-><gg| - p |ee><gg| - alpha p |ee><-|
                 + h.c.)] / (1 + 2p + 3p^2).

    Jumps cannot act on the coherences between |+> and the ladder, so they
    evolve under the ladder's no-jump Hamiltonian
    H_L = i alpha (J^+ - J) - i J^+ J alone.
    Eliminating them to second order in V gives the rates between |+> and
    rho_B:

    - out: H_L^-1 V|+> = (i delta/2) |->. The drive paths from |+> to |gg>
      and |ee>, direct and through |->, cancel; only the |-> admixture
      decays, so G_out = gamma_D + 2 Im <+|V H_L^-1 V|+> = 2 gamma_D at
      every power.
    - in: u = (H_L^+)^-1 V|+> = -(i delta/alpha) |gg> + (i delta/2) |->, and
      G_in = -2 Im <+|V rho_B|u> + gamma_D <ee|rho_B|ee>
           = 2 delta^2 (1 + p^2/2) / (1 + 2p + 3p^2) = 4 gamma_D (1 - 2p),
      to first order: the bright ladder saturates.

    The 1/alpha term of u is the |gg>-|+> coherence that carries the pump.
    It decays at p, the width the drive gives |gg> through |->; keeping
    the width gamma_D of |+> makes that p + gamma_D, which multiplies G_in by
    p/(p + gamma_D) = 1 - gamma_D/p. With eps = 2p + gamma_D/p,

        P = G_in / (G_in + G_out) = 2 (1 - eps) / (3 - 2 eps)
          = 2/3 - (2/9) eps = 2/3 - (4/9) p - (2/9) gamma_D/p.

    The neglected terms are second order; the largest here, -(7/27) p^2
    from the delta -> 0 limit (2 + p^2)/(3 + 2p + 4p^2), is 0.65 delta^2.
    tests/test_diode.py checks that limit and the weak-drive limit
    2p/(3p + gamma_D) against the full model. Reverse drive flips the sign
    of the J drive, so the two paths into |+> cancel instead.

    The reverse limit 5 delta^2 is not an O(delta^2) bound. With the pump
    cancelled, the reverse population is about 0.9 p^2 + 0.5 delta^2 near
    this power, so it stays O(p^2) as delta -> 0: at p = 0.05 it is 2.75e-3
    at delta^2 = 1e-3 and still 2.25e-3 at delta^2 = 1e-7. The limit holds
    because p^2 = 2.5 delta^2 at this operating point; on the same device
    it is crossed near p = 0.073.
    """
    d2 = 1e-3
    gamma_d = 0.5 * d2
    target = (2.0 / 3.0 - 4.0 / 9.0 * PLATEAU_POWER
              - 2.0 / 9.0 * gamma_d / PLATEAU_POWER)
    fwd, rev = (plateau_op.dark_population_forward,
                plateau_op.dark_population_reverse)
    ok_fwd = abs(fwd - target) <= 3.0 * d2
    ok_rev = rev <= 5.0 * d2
    detail = (f"forward = {fwd:.5f} (target {target:.5f} +- {3 * d2:g}), "
              f"reverse = {rev:.5f} (limit {5 * d2:g})")
    assert scorecard.record(2, ok_fwd and ok_rev, detail), detail


def test_three_power_regimes():
    """3: sweep p/gbar over [1e-5, 1e2] -> efficiency < 0.02 at both
    extremes, > 0.5 somewhere in the interior (ideal rates)."""
    c = ideal_device(np.sqrt(3e-3))
    powers = np.geomspace(1e-5, 1e2, 25)
    rows = power_sweep(c, powers)
    effs = np.array([r.efficiency for r in rows])
    ok = (not any(r.error for r in rows)
          and effs[0] < 0.02 and effs[-1] < 0.02
          and np.nanmax(effs[1:-1]) > 0.5)
    detail = (f"eff(1e-5) = {effs[0]:.4f}, eff(1e2) = {effs[-1]:.3g}, "
              f"peak = {np.nanmax(effs):.4f}")
    assert scorecard.record(3, ok, detail), detail


def test_single_emitter_extinction():
    """4: single qubit with the upper-frequency rate set, on resonance,
    weak drive -> |t|^2 < 0.004."""
    q = QubitParams(omega_q=0.0, gamma_r=RATES_B["gamma_r"],
                    gamma_nr=RATES_B["gamma_nr"],
                    gamma_phi=RATES_B["gamma_phi"])
    power_t = abs(transmission_numeric(q, np.sqrt(1e-6 * q.gamma_r))) ** 2
    ok = power_t < 0.004
    detail = f"|t|^2 on resonance = {power_t:.3e} (limit 4e-3)"
    assert scorecard.record(4, ok, detail), detail


def test_analytic_numeric_equivalence():
    """5: closed-form single-qubit transmission vs steady-state
    <a_out>/alpha within 1e-8 on a 40 x 10 grid."""
    q = QubitParams(omega_q=0.0, gamma_r=RATES_A["gamma_r2"],
                    gamma_nr=RATES_A["gamma_nr"],
                    gamma_phi=RATES_A["gamma_phi"])
    detunings = np.linspace(-4.0, 4.0, 40) * q.gamma_r
    powers = np.geomspace(1e-4, 10.0, 10) * q.gamma_r
    worst = 0.0
    for power in powers:
        alpha = np.sqrt(power)
        for det in detunings:
            qq = QubitParams(omega_q=det, gamma_r=q.gamma_r,
                             gamma_nr=q.gamma_nr, gamma_phi=q.gamma_phi)
            t_num = transmission_numeric(qq, alpha)
            t_ana = transmission_analytic(qq, det, alpha)
            worst = max(worst, abs(t_num - t_ana))
    ok = worst <= 1e-8
    detail = f"max |t_numeric - t_analytic| = {worst:.3e} over 400 points"
    assert scorecard.record(5, ok, detail), detail


def test_flux_conservation_random_configs():
    """6: without nonradiative loss the two output fluxes sum to the
    input flux within 1e-8 relative, over 50 random configurations."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        gamma_r1 = float(np.exp(rng.normal(0.0, 0.3)))
        gamma_r2 = float(np.exp(rng.normal(0.0, 0.3)))
        gbar = np.sqrt(gamma_r1 * gamma_r2)
        delta = float(rng.uniform(0.02, 0.25) * rng.choice([-1.0, 1.0]))
        gamma_phi = float(rng.uniform(0.0, 0.02) * gbar)
        w1, w2 = optimal_tuning(delta, gbar)
        w1 += rng.uniform(-0.2, 0.2) * gbar
        w2 += rng.uniform(-0.2, 0.2) * gbar
        q1 = QubitParams(omega_q=w1, gamma_r=gamma_r1, gamma_phi=gamma_phi)
        q2 = QubitParams(omega_q=w2, gamma_r=gamma_r2, gamma_phi=gamma_phi)
        c = DiodeConfig(q1, q2, delta)
        amp = np.sqrt(10.0 ** rng.uniform(-3.0, 0.5) * gbar)
        drive = (amp, 0.0) if rng.random() < 0.5 else (0.0, amp)
        lv, a_out, b_out = diode_model(c, *drive)
        rho = steady_state(lv)
        out_flux = (expectation(a_out.conj().T @ a_out, rho).real
                    + expectation(b_out.conj().T @ b_out, rho).real)
        worst = max(worst, abs(out_flux - amp ** 2) / amp ** 2)
    ok = worst <= 1e-8
    detail = f"max relative flux defect = {worst:.3e} over 50 configs"
    assert scorecard.record(6, ok, detail), detail


def test_linewidth_scaling():
    """7: fitted spectral FWHM vs delta^2 over {1e-4 .. 1e-2} at the
    canonical power -> linear fit R^2 > 0.99, intercept within 10% of the
    largest width, each width within 10% of the predicted value."""
    d2_values = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    widths, predictions = [], []
    for d2 in d2_values:
        delta = np.sqrt(d2)
        c = ideal_device(delta)
        pred = predicted_linewidth(delta, 1.0, 0.0, 0.0)
        grid = np.linspace(-8.0 * pred, 8.0 * pred, 401)
        fit = fit_lorentzian(psd(c, "forward", "transmitted", PLATEAU_POWER,
                                 grid))
        widths.append(fit.fwhm)
        predictions.append(pred)
    widths = np.array(widths)
    slope, intercept = np.polyfit(d2_values, widths, 1)
    residuals = widths - (slope * np.array(d2_values) + intercept)
    r2 = 1.0 - np.sum(residuals ** 2) / np.sum((widths - widths.mean()) ** 2)
    ratios = widths / np.array(predictions)
    ok_r2 = r2 > 0.99
    ok_intercept = abs(intercept) <= 0.10 * widths.max()
    ok_each = bool(np.all(np.abs(ratios - 1.0) <= 0.10))
    detail = (f"R^2 = {r2:.5f}, intercept/max_width = "
              f"{intercept / widths.max():+.3f}, width/prediction in "
              f"[{ratios.min():.3f}, {ratios.max():.3f}] "
              f"(pump 4 gamma_D + dressed decay 2 gamma_D)")
    assert scorecard.record(7, ok_r2 and ok_intercept and ok_each,
                            detail), detail


def test_spectral_asymmetry():
    """8: integrated inelastic power, forward transmitted vs reverse
    reflected at the delta^2 = 1e-3 optimum -> ratio >= 3."""
    c = ideal_device(np.sqrt(1e-3))
    power = PLATEAU_POWER * c.gamma_bar
    pred = predicted_linewidth(c.delta, c.gamma_bar, 0.0, 0.0)
    # Dense core across the narrow line plus geometric tails out to the
    # broad bright-state background, so both integrals are near-total.
    half = np.concatenate([np.linspace(0.0, 8.0 * pred, 401),
                           np.geomspace(8.0 * pred, 4.0, 300)[1:]])
    grid = np.concatenate([-half[:0:-1], half])
    fwd = psd(c, "forward", "transmitted", power, grid)
    rev = psd(c, "reverse", "reflected", power, grid)
    ratio = integrated_inelastic(fwd) / integrated_inelastic(rev)
    ok = ratio >= 3.0
    detail = f"inelastic forward/reverse = {ratio:.2f} (minimum 3)"
    assert scorecard.record(8, ok, detail), detail


def test_fit_recovery_monte_carlo():
    """9: synthetic transmission traces with 1% multiplicative noise,
    200 points -> gamma_r within 2% and gamma_nr + 2 gamma_phi within 10%,
    in at least 95 of 100 realizations."""
    gr_true = RATES_A["gamma_r2"]
    s_true = RATES_A["gamma_nr"] + 2.0 * RATES_A["gamma_phi"]
    q_true = QubitParams(omega_q=0.0, gamma_r=gr_true,
                         gamma_nr=RATES_A["gamma_nr"],
                         gamma_phi=RATES_A["gamma_phi"])
    delta_omega = np.linspace(-1.5, 1.5, 200) * q_true.gamma_2
    t_clean = transmission_analytic(q_true, delta_omega, 0.0)
    initial = QubitParams(omega_q=0.0, gamma_r=1.2 * gr_true,
                          gamma_phi=0.35 * s_true)
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(100):
        noise = (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        t_noisy = t_clean * (1.0 + 0.01 / np.sqrt(2.0) * noise)
        try:
            _, report = fit_single_qubit(delta_omega, t_noisy,
                                         0.0, initial)
        except FitError:
            continue
        if (abs(report.gamma_r / gr_true - 1.0) <= 0.02
                and abs(report.s / s_true - 1.0) <= 0.10):
            hits += 1
    ok = hits >= 95
    detail = f"{hits}/100 realizations within 2% / 10% (minimum 95)"
    assert scorecard.record(9, ok, detail), detail


def test_mirror_variance_statistics(plateau_op):
    """10: 2^18 samples per point over 8 powers -> in-phase variance slope
    P(1-P) within 5% for both directions, quadrature flat within 3
    standard errors, forward slope above reverse."""
    p_fwd = plateau_op.dark_population_forward
    p_rev = plateau_op.dark_population_reverse
    sigma_w = 0.05
    n_samples = 2 ** 18
    powers = np.linspace(0.5, 4.0, 8)
    rows = variance_vs_power(p_fwd, p_rev, powers, sigma_w, seed=2024,
                             n_samples=n_samples)
    slope_f = np.polyfit(powers, [r.var_i_fwd for r in rows], 1)[0]
    slope_r = np.polyfit(powers, [r.var_i_rev for r in rows], 1)[0]
    target_f = p_fwd * (1.0 - p_fwd)
    target_r = p_rev * (1.0 - p_rev)
    se_q = sigma_w ** 2 * np.sqrt(2.0 / (n_samples - 1))
    q_values = [v for r in rows for v in (r.var_q_fwd, r.var_q_rev)]
    q_flat = all(abs(v - sigma_w ** 2) <= 3.0 * se_q for v in q_values)
    ok = (abs(slope_f / target_f - 1.0) <= 0.05
          and abs(slope_r / target_r - 1.0) <= 0.05
          and q_flat and slope_f > slope_r)
    detail = (f"slope_fwd/P(1-P) = {slope_f / target_f:.4f}, "
              f"slope_rev/P(1-P) = {slope_r / target_r:.4f}, "
              f"quadrature flat = {q_flat}")
    assert scorecard.record(10, ok, detail), detail


def test_decoherence_degradation():
    """11: with the measured rate set the best efficiency stays strictly
    below the ideal-rate maximum at the same delta, and falls
    monotonically as the decoherence rates are scaled up x{1, 2, 4, 8}."""
    delta = np.sqrt(1e-3)
    r1, r2 = RATES_A["gamma_r1"], RATES_A["gamma_r2"]
    gbar = np.sqrt(r1 * r2)
    powers = np.geomspace(3e-3, 0.5, 12) * gbar

    def best_efficiency(scale):
        c = ideal_device(delta, gamma_nr=scale * RATES_A["gamma_nr"],
                         gamma_phi=scale * RATES_A["gamma_phi"],
                         gamma_r1=r1, gamma_r2=r2)
        return max(operating_point(c, p).efficiency for p in powers)

    ideal_max = best_efficiency(0.0)
    maxima = [best_efficiency(k) for k in (1.0, 2.0, 4.0, 8.0)]
    ok = (maxima[0] < ideal_max
          and all(b < a for a, b in zip(maxima, maxima[1:])))
    detail = (f"ideal = {ideal_max:.4f}, scaled x(1,2,4,8) = "
              + ", ".join(f"{m:.4f}" for m in maxima))
    assert scorecard.record(11, ok, detail), detail


def test_deterministic_reruns(tmp_path):
    """12: repeating any mode with the same configuration produces
    byte-identical data files (all six CLI modes)."""
    device = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6,
              "delta": float(np.sqrt(1e-3))}
    scan_out = tmp_path / "scan-1"   # doubles as the fit-mode input
    configs = {
        "steady-state": {**device, "p_over_gammabar": 0.05},
        "sweep-power": {**device, "power_min_over_gammabar": 0.01,
                        "power_max_over_gammabar": 1.0, "n_powers": 3},
        "sweep-frequency": {"gamma_r_hz": 70e6,
                            "power_over_gamma_r": 1e-4, "n_points": 101},
        "spectrum": {**device, "p_over_gammabar": 0.05,
                     "direction": "forward", "port": "transmitted",
                     "n_freq": 33, "span_linewidths": 8.0},
        "fit": {"input_csv": str(scan_out / "frequency_sweep.csv"),
                "initial_gamma_r_hz": 80e6},
        "mirror-mc": {"p_dark_fwd": 0.64, "p_dark_rev": 0.003,
                      "sigma_w": 0.05, "n_samples": 16384, "power_min": 0.5,
                      "power_max": 2.0, "n_powers": 3, "seed": 31},
    }
    data_files = {"steady-state": "steady_state.json",
                  "sweep-power": "power_sweep.csv",
                  "sweep-frequency": "frequency_sweep.csv",
                  "spectrum": "spectrum.csv",
                  "fit": "fit_result.json",
                  "mirror-mc": "mirror_sweep.csv"}
    # The frequency scan runs first so its output can feed the fit mode.
    order = ["sweep-frequency", "steady-state", "sweep-power", "spectrum",
             "fit", "mirror-mc"]
    identical = True
    for mode in order:
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps(configs[mode]))
        out1 = scan_out if mode == "sweep-frequency" else tmp_path / f"{mode}-1"
        out2 = tmp_path / f"{mode}-2"
        assert run([mode, "--config", str(cfg), "--out", str(out1)]) == 0
        assert run([mode, "--config", str(cfg), "--out", str(out2)]) == 0
        identical &= filecmp.cmp(out1 / data_files[mode],
                                 out2 / data_files[mode], shallow=False)
    detail = "all six modes rerun byte-identical"
    assert scorecard.record(12, identical, detail), detail
