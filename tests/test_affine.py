"""Affine Liouvillian assembly against direct assembly, on drawn devices.

The sweeps build L(a) = L0 + a L1 for a real drive amplitude a (diode) and
L(Delta) = L(0) + Delta DETUNING_SUPEROP for a detuning Delta (single qubit),
instead of assembling every point. These properties check both forms, and
the sweep results, against the direct builders, which stay the reference.
Hypothesis draws derandomized examples, so every run tests the same devices.
"""

from dataclasses import replace

import numpy as np
from device_strategies import PROPERTY, lossy_devices, powers_over_gbar, sides
from hypothesis import given
from hypothesis import strategies as st

from qdiode.diode import (
    _one_sided,
    _solve_side,
    build_diode_liouvillian,
    dark_state_population,
    diode_output_ops,
)
from qdiode.operators import SolverError, expectation, steady_state
from qdiode.single_qubit import (
    DETUNING_SUPEROP,
    QubitParams,
    build_single_qubit_liouvillian,
    single_qubit_output_ops,
    transmission_vs_detuning,
)

def assert_close_in_norm(got, want, rel):
    """|got - want| <= rel * max(|want|, 1) entrywise, in the max norm."""
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) <= rel * scale


@PROPERTY
@given(lossy_devices(), powers_over_gbar, sides)
def test_diode_liouvillian_is_affine_in_the_amplitude(c, p, side):
    amp = np.sqrt(p * c.gamma_bar)
    lv0, (out0, _) = _one_sided(c, side, 0.0)
    lv1, (out1, _) = _one_sided(c, side, 1.0)
    alpha, beta = (amp, 0.0) if side == "forward" else (0.0, amp)
    direct = build_diode_liouvillian(c, alpha, beta)
    assert_close_in_norm(lv0 + amp * (lv1 - lv0), direct, 1e-14)
    a_out, b_out = diode_output_ops(c, alpha, beta)
    transmitted = a_out if side == "forward" else b_out
    np.testing.assert_array_equal(out0 + amp * (out1 - out0), transmitted)


@PROPERTY
@given(lossy_devices(), st.lists(powers_over_gbar, min_size=1, max_size=6),
       sides)
def test_stacked_side_solve_matches_direct_solves(c, ps, side):
    amps = np.sqrt(np.sort(ps) * c.gamma_bar)
    for amp, got in zip(amps, _solve_side(c, side, amps)):
        alpha, beta = (amp, 0.0) if side == "forward" else (0.0, amp)
        try:
            rho = steady_state(build_diode_liouvillian(c, alpha, beta))
        except SolverError:
            assert isinstance(got, SolverError)
            continue
        t, dark, rho_got = got
        ports = diode_output_ops(c, alpha, beta)
        port = ports[0] if side == "forward" else ports[1]
        np.testing.assert_allclose(t, expectation(port, rho) / amp,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(dark, dark_state_population(rho),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(rho_got, rho, rtol=0, atol=1e-9)


@st.composite
def driven_qubits(draw):
    """An emitter with gamma_r in [0.5, 2], gamma_nr and gamma_phi in
    [0, 0.1] gamma_r, and a drive of flux in [1e-4, 10] gamma_r from the
    left, the right or both sides."""
    gr = draw(st.floats(0.5, 2.0))
    q = QubitParams(omega_q=0.0, gamma_r=gr,
                    gamma_nr=draw(st.floats(0.0, 0.1)) * gr,
                    gamma_phi=draw(st.floats(0.0, 0.1)) * gr)
    amp = np.sqrt(draw(powers_over_gbar) * gr)
    alpha, beta = draw(st.sampled_from([(amp, 0.0), (0.0, amp),
                                        (amp, 0.5 * amp)]))
    return q, alpha, beta


detunings = st.floats(-20.0, 20.0)


@PROPERTY
@given(driven_qubits(), detunings)
def test_single_qubit_liouvillian_is_affine_in_the_detuning(drive, det):
    q, alpha, beta = drive
    lv0 = build_single_qubit_liouvillian(q, alpha, beta)
    direct = build_single_qubit_liouvillian(replace(q, omega_q=det),
                                            alpha, beta)
    assert_close_in_norm(lv0 + det * DETUNING_SUPEROP, direct, 1e-15)


@PROPERTY
@given(driven_qubits(), st.lists(detunings, min_size=1, max_size=6))
def test_detuning_grid_matches_direct_solves(drive, grid):
    q, alpha, beta = drive
    got = transmission_vs_detuning(q, grid, alpha, beta)
    for det, t in zip(grid, got):
        qq = replace(q, omega_q=det)
        rho = steady_state(build_single_qubit_liouvillian(qq, alpha, beta))
        a_out, b_out = single_qubit_output_ops(qq, alpha, beta)
        want = (expectation(a_out, rho) / alpha if alpha != 0
                else expectation(b_out, rho) / beta)
        np.testing.assert_allclose(t, want, rtol=0, atol=1e-12)
