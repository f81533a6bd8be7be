"""Affine Liouvillian assembly against direct assembly, on drawn devices.

The sweeps solve L(x) = L(0) + x (L(1) - L(0)) for a real drive amplitude x
(diode) or a detuning x (single qubit), instead of assembling every point.
These properties check that form, and the sweep results, against direct
assembly and direct solves at each point. Hypothesis draws derandomized
examples, so every run tests the same devices.
"""

from dataclasses import replace

import numpy as np
import pytest
from device_strategies import (
    PROPERTY,
    lossy_devices,
    powers_over_gbar,
    sides,
    wide_powers_over_gbar,
)
from hypothesis import given
from hypothesis import strategies as st

from qdiode.diode import (
    _drive,
    _drive_sweep,
    dark_state_population,
    diode_model,
    power_sweep,
)
from qdiode.operators import SolverError, expectation, steady_state
from qdiode.single_qubit import (
    QubitParams,
    emitter_chain,
    transmission_vs_detuning,
)


def assert_close_in_norm(got, want, rel):
    """|got - want| <= rel * max(|want|, 1) entrywise, in the max norm."""
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) <= rel * scale


def one_sided(c, side, amp):
    """``diode_model`` under a drive of amplitude ``amp`` from ``side``."""
    return diode_model(c, *((amp, 0.0) if side == "forward" else (0.0, amp)))


@PROPERTY
@given(lossy_devices(), st.lists(powers_over_gbar, min_size=1, max_size=6),
       sides)
def test_stacked_side_solve_matches_direct_solves(c, ps, side):
    powers = np.sort(ps) * c.gamma_bar
    amps = np.sqrt(powers)
    solved = _drive_sweep(c, [_drive(side, 1.0)], amps)[0][0]
    rows = power_sweep(c, powers, (side,))
    t_col = [r.t_forward if side == "forward" else r.t_reverse for r in rows]
    dark_col = [r.dark_population_forward if side == "forward"
                else r.dark_population_reverse for r in rows]
    for amp, t, dark, rho_got, error in zip(amps, t_col, dark_col,
                                            solved.rho, solved.error):
        lv, a_out, b_out = one_sided(c, side, amp)
        try:
            rho = steady_state(lv)
        except SolverError as exc:
            assert error == str(exc)
            assert np.isnan(t) and np.isnan(dark)
            continue
        assert error is None, error
        port = a_out if side == "forward" else b_out
        np.testing.assert_allclose(t, expectation(port, rho) / amp,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(dark, dark_state_population(rho),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(rho_got, rho, rtol=0, atol=1e-9)


@st.composite
def driven_qubits(draw, two_sided=True):
    """An emitter with gamma_r in [0.5, 2], gamma_nr and gamma_phi in
    [0, 0.1] gamma_r, and a drive of flux in [1e-4, 10] gamma_r from the
    left, the right or both sides; from the left only unless ``two_sided``."""
    gr = draw(st.floats(0.5, 2.0))
    q = QubitParams(omega_q=0.0, gamma_r=gr,
                    gamma_nr=draw(st.floats(0.0, 0.1)) * gr,
                    gamma_phi=draw(st.floats(0.0, 0.1)) * gr)
    amp = np.sqrt(draw(powers_over_gbar) * gr)
    if not two_sided:
        return q, amp, 0.0
    alpha, beta = draw(st.sampled_from([(amp, 0.0), (0.0, amp),
                                        (amp, 0.5 * amp)]))
    return q, alpha, beta


detunings = st.floats(-20.0, 20.0)


def amplitude_sweep(draw, powers=powers_over_gbar):
    """A drawn device's model as a function of a one-sided drive amplitude,
    a drawn amplitude, and the tolerance of the affine form there."""
    c, side = draw(lossy_devices()), draw(sides)
    amp = np.sqrt(draw(powers) * c.gamma_bar)
    return (lambda a: one_sided(c, side, a)), amp, 1e-14


def strong_amplitude_sweep(draw):
    """``amplitude_sweep`` at a flux of up to 1e10 gbar. An output
    dissipator D[c + A] formed with its drive part c would carry the
    rounding of its |c|^2 terms, of order eps |c|^2, there."""
    return amplitude_sweep(draw, wide_powers_over_gbar)


def detuning_sweep(draw):
    """A drawn driven emitter's model as a function of its detuning, a
    drawn detuning, and the tolerance of the affine form there."""
    q, alpha, beta = draw(driven_qubits())
    return ((lambda det: emitter_chain([replace(q, omega_q=det)], 1.0,
                                       alpha, beta)),
            draw(detunings), 1e-15)


@PROPERTY
@pytest.mark.parametrize(
    "sweep", [amplitude_sweep, strong_amplitude_sweep, detuning_sweep],
    ids=["amplitude", "strong-amplitude", "detuning"])
@given(data=st.data())
def test_model_is_affine_in_the_swept_parameter(sweep, data):
    build, x, rel = sweep(data.draw)
    (lv0, *outs0), (lv1, *outs1) = build(0.0), build(1.0)
    lv, *outs = build(x)
    assert_close_in_norm(lv0 + x * (lv1 - lv0), lv, rel)
    for out0, out1, out in zip(outs0, outs1, outs):
        np.testing.assert_array_equal(out0 + x * (out1 - out0), out)


@PROPERTY
@given(driven_qubits(two_sided=False),
       st.lists(detunings, min_size=1, max_size=6))
def test_detuning_grid_matches_direct_solves(drive, grid):
    q, alpha, _ = drive
    got = transmission_vs_detuning(q, grid, alpha)
    for det, t in zip(grid, got):
        lv, a_out, _ = emitter_chain([replace(q, omega_q=det)], 1.0, alpha)
        rho = steady_state(lv)
        np.testing.assert_allclose(t, expectation(a_out, rho) / alpha,
                                   rtol=0, atol=1e-12)
