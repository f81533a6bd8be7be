"""Properties of the stacked steady-state solver on drawn devices.

``operators.steady_states`` checks each Liouvillian's singular values and
solves the bordered system (row 0 replaced by the trace row) for rho's real
Hermitian coordinates. These properties compare it with the SVD null-vector
reference it replaced, which works on the column-stacking Liouvillians, and
pin two physics invariants: every state it returns is a density matrix, and
a symmetric lossless device at delta = 0, whose dark state never decays, has
no unique steady state at any power.
"""

import numpy as np
import pytest
from device_strategies import (
    PROPERTY,
    drive_amplitudes,
    lossy_devices,
    powers_over_gbar,
    sides,
    single_qubit_devices,
    wide_powers_over_gbar,
)
from hypothesis import given
from hypothesis import strategies as st
from oracles import check_density_matrix, sweep_null_gaps
from svd_reference import hermitian_basis_change, svd_null_vector_states

from qdiode.diode import (
    DiodeConfig,
    _drive,
    _drive_sweep,
    _gap_diagnostics,
    dark_bright_rates,
    diode_model,
    optimal_tuning,
    power_sweep,
)
from qdiode.operators import (
    PENCIL_MIN_GAP,
    SolverError,
    _pencil_factors,
    pencil_states,
    real_form,
    steady_state,
    steady_states,
)
from qdiode.single_qubit import QubitParams, emitter_chain

power_lists = st.lists(powers_over_gbar, min_size=1, max_size=6)


def side_stack(c, side, amps, form=np.asarray):
    """The Liouvillians L0 + a L1 a sweep solves at amplitudes ``amps``,
    with L(0) and L(1) each passed through ``form`` first: column stacking
    by default, the sweep's own real stack with ``form=real_form``."""
    lv0 = form(diode_model(c, *_drive(side, 0.0))[0])
    lv1 = form(diode_model(c, *_drive(side, 1.0))[0])
    return lv0 + amps[:, None, None] * (lv1 - lv0)


@PROPERTY
@given(lossy_devices(), power_lists, sides)
def test_bordered_solve_matches_the_svd_reference(c, ps, side):
    amps = np.sqrt(np.sort(ps) * c.gamma_bar)
    got = steady_states(side_stack(c, side, amps, real_form))
    want = svd_null_vector_states(side_stack(c, side, amps))
    for rho, error, gap, ref in zip(got.rho, got.error, got.null_gap,
                                    want):
        if isinstance(ref, SolverError):
            assert error == str(ref)
            continue
        assert error is None, error
        # Both are backward stable, so each null vector is accurate to about
        # eps / gap: 1e-12 wherever the null gap exceeds 1e-3 (every
        # benchmark device), and no better than the conditioning below that.
        assert np.max(np.abs(rho - ref)) <= max(1e-12, 1e-15 / gap)


@PROPERTY
@given(lossy_devices(), power_lists, sides)
def test_a_failed_solve_is_a_nan_state_beside_its_message(c, ps, side):
    # The drawn device's sweep and, at the same amplitudes, a lossless one at
    # delta = 0, whose dark state never decays: every point of it fails.
    amps = np.sqrt(np.sort(ps) * c.gamma_bar)
    q = QubitParams(omega_q=0.0, gamma_r=c.q1.gamma_r)
    stack = np.concatenate([side_stack(c, side, amps),
                            side_stack(DiodeConfig(q, q, 0.0), side, amps)])
    solved = steady_states(np.array([real_form(lv) for lv in stack]))
    assert all(e is not None for e in solved.error[amps.size:])
    for lv, rho, error, ref in zip(stack, solved.rho, solved.error,
                                   svd_null_vector_states(stack)):
        assert error == (str(ref) if isinstance(ref, SolverError) else None)
        assert np.all(np.isnan(rho)) == (error is not None)
        assert np.any(np.isnan(rho)) == (error is not None)
        try:
            one = steady_state(lv)
        except SolverError as exc:
            assert str(exc) == error
        else:
            assert one.tobytes() == rho.tobytes()


@PROPERTY
@given(lossy_devices(), power_lists)
def test_every_returned_state_is_a_density_matrix(c, ps):
    amps = np.sqrt(np.sort(ps) * c.gamma_bar)
    for side in ("forward", "reverse"):
        solved = _drive_sweep(c, [_drive(side, 1.0)], amps)[0][0]
        for rho, error in zip(solved.rho, solved.error):
            if error is None:
                check_density_matrix(rho)
                np.testing.assert_array_equal(rho, rho.conj().T)


@PROPERTY
@given(st.floats(0.5, 2.0), st.lists(st.just(0.0) | powers_over_gbar,
                                     min_size=1, max_size=6))
def test_symmetric_lossless_device_at_zero_delta_never_solves(gr, ps):
    q = QubitParams(omega_q=0.0, gamma_r=gr)
    c = DiodeConfig(q, q, 0.0)
    info = {}
    rows = power_sweep(c, np.sort(ps) * gr, info=info)
    assert all(r.error is not None for r in rows)
    assert all(np.isnan(r.t_forward) and np.isnan(r.t_reverse) for r in rows)
    assert info["min_null_gap"] is None


def side_ends(c, side):
    """The real forms of L(0) and L(1) of one side's sweep."""
    return [real_form(diode_model(c, *_drive(side, x))[0]) for x in (0.0, 1.0)]


def ideal_lossy_device():
    q1 = QubitParams(omega_q=-0.03, gamma_r=1.0, gamma_nr=0.02, gamma_phi=0.01)
    q2 = QubitParams(omega_q=0.0, gamma_r=0.9, gamma_nr=0.02, gamma_phi=0.01)
    return DiodeConfig(q1, q2, 0.03)


def near_degenerate_rows(solved):
    """A sweep's ``near_degenerate_rows`` diagnostic, as
    ``_gap_diagnostics`` sets it for one side's accepted points."""
    info = {}
    ok = np.array([e is None for e in solved.error], dtype=bool)
    _gap_diagnostics(info, solved.null_gap[None, ok],
                     solved.residual[None, ok])
    return info["near_degenerate_rows"]


@PROPERTY
@given(lossy_devices(), st.lists(wide_powers_over_gbar, min_size=1,
                                 max_size=40), sides)
def test_pencil_states_keep_the_svd_rule(c, ps, side):
    # The pencil keeps a point only where its bound proves that the SVD rule
    # passes it, so every failure and message is the SVD's.
    l0, l1 = side_ends(c, side)
    amps = np.sqrt(np.array(ps) * c.gamma_bar)
    got = pencil_states(l0, l1, amps)
    want = steady_states(l0 + amps[:, None, None] * (l1 - l0))
    assert got.error == want.error
    ok = np.array([e is None for e in want.error], dtype=bool)
    assert np.all(np.isnan(got.rho[~ok]))
    # Each is accurate to about eps / gap, as in the SVD reference test
    # above: 1e-12 wherever the null gap exceeds 1e-3. The drawn examples
    # differ by at most 5.6e-13, at a gap of 1.6e-6.
    deviation = np.max(np.abs(got.rho - want.rho), axis=(1, 2))
    assert np.all(deviation[ok]
                  <= np.maximum(1e-12, 1e-15 / want.null_gap[ok]))
    assert np.all(got.null_gap <= want.null_gap)
    assert near_degenerate_rows(got) == near_degenerate_rows(want)


@pytest.mark.parametrize("side", ["forward", "reverse"])
def test_a_singular_pencil_leaves_every_point_to_the_svd(side):
    # Symmetric, lossless and at delta = 0, the undriven device keeps its
    # dark state, so the bordered L(0) is singular: no point is the pencil's.
    q = QubitParams(omega_q=0.0, gamma_r=1.0)
    l0, l1 = side_ends(DiodeConfig(q, q, 0.0), side)
    assert _pencil_factors(l0, l1) is None
    amps = np.sqrt(np.geomspace(1e-3, 10.0, 30))
    got = pencil_states(l0, l1, amps)
    want = steady_states(l0 + amps[:, None, None] * (l1 - l0))
    assert got.error == want.error
    assert all(e is not None for e in got.error)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("side", ["forward", "reverse"])
def test_the_near_degenerate_sweep_fails_the_svd_rows(side):
    # The power-scan benchmark's degenerate job: 70 MHz emitters at
    # delta = 2e-5, whose strongest 22 drives have no unique steady state.
    q = QubitParams(omega_q=0.0, gamma_r=2 * np.pi * 70e6)
    c = DiodeConfig(q, q, 2e-5)
    l0, l1 = side_ends(c, side)
    amps = np.sqrt(np.geomspace(1e-3, 10.0, 100) * c.gamma_bar)
    got = pencil_states(l0, l1, amps)
    want = steady_states(l0 + amps[:, None, None] * (l1 - l0))
    assert got.error == want.error
    assert [k for k, e in enumerate(got.error) if e] == list(range(78, 100))
    assert near_degenerate_rows(got) == near_degenerate_rows(want) == 78


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_end_leaves_every_point_to_the_svd(bad):
    l0, l1 = side_ends(ideal_lossy_device(), "forward")
    l1[3, 5] = bad
    amps = np.sqrt(np.geomspace(1e-3, 10.0, 5))
    got = pencil_states(l0, l1, amps)
    want = steady_states(l0 + amps[:, None, None] * (l1 - l0))
    assert got.error == want.error == (
        ["Liouvillian has non-finite entries"] * amps.size)
    assert np.all(np.isnan(got.rho)) and np.all(np.isnan(got.null_gap))


def test_power_sweep_reports_the_smallest_null_gap():
    c = ideal_lossy_device()
    powers = np.geomspace(1e-3, 10.0, 7) * c.gamma_bar
    info = {}
    rows = power_sweep(c, powers, info=info)
    assert all(r.error is None for r in rows)
    svd_gaps, bounds, resids = [], [], []
    for side in ("forward", "reverse"):
        gaps, bound = sweep_null_gaps(c, side, np.sqrt(powers))
        svd_gaps.extend(gaps)
        bounds.extend(bound)
        resids.extend(_drive_sweep(c, [_drive(side, 1.0)],
                                   np.sqrt(powers))[0][0].residual)
    # Each bound clears the pencil's floor, so the manifest's gap is the
    # smallest bound: a lower bound on the SVD's.
    assert min(bounds) >= PENCIL_MIN_GAP
    assert info["min_null_gap"] <= min(svd_gaps)
    assert info["min_null_gap"] == pytest.approx(min(bounds), rel=1e-6)
    assert info["max_residual"] == max(resids)
    assert info["near_degenerate_rows"] == 0


@PROPERTY
@given(lossy_devices() | single_qubit_devices(),
       st.lists(st.tuples(drive_amplitudes, drive_amplitudes),
                min_size=1, max_size=4))
def test_real_form_keeps_every_liouvillian_and_its_steady_state(device,
                                                                 drives):
    diode = isinstance(device, DiodeConfig)
    scale = np.sqrt(device.gamma_bar if diode else device.gamma_r)
    stack = np.array([
        (diode_model(device, alpha * scale, beta * scale) if diode
         else emitter_chain([device], 1.0, alpha * scale, beta * scale))[0]
        for alpha, beta in drives])
    v = hermitian_basis_change(int(round(np.sqrt(stack.shape[-1]))))
    direct = v.conj().T @ stack @ v
    real = np.array([real_form(lv) for lv in stack])
    for lv, d, r in zip(stack, direct, real):
        largest = np.max(np.abs(d))
        assert np.max(np.abs(d.imag)) <= 1e-12 * largest
        np.testing.assert_allclose(r, d.real, rtol=0, atol=1e-12 * largest)
        s_col = np.linalg.svd(lv, compute_uv=False)
        s_real = np.linalg.svd(r, compute_uv=False)
        assert np.max(np.abs(s_real - s_col)) <= 1e-13 * s_col[0]
    solved = steady_states(real)
    for got, error, want in zip(solved.rho, solved.error,
                                svd_null_vector_states(stack)):
        if isinstance(want, SolverError):
            assert error == str(want)
        else:
            assert error is None, error
            assert np.max(np.abs(got - want)) <= 1e-12


def test_trace_row_keeps_the_trace_at_rates_of_order_1e8():
    # The trace row is scaled by s_max, about 1.5e9/s here. A unit row
    # beside entries of that size leaves tr rho off by up to 1.3e-10 on this
    # scan, more than TRACE_TOL.
    gamma = 2.0 * np.pi * 70e6
    for delta in (1e-3, 1e-2, 0.03):
        w1, w2 = optimal_tuning(delta, gamma)
        c = DiodeConfig(QubitParams(omega_q=w1, gamma_r=gamma),
                        QubitParams(omega_q=w2, gamma_r=gamma), delta)
        gamma_d, _ = dark_bright_rates(delta, gamma, gamma)
        amps = np.sqrt(np.geomspace(1e-3 * gamma_d, 10.0 * gamma, 60))
        for side in ("forward", "reverse"):
            solved = _drive_sweep(c, [_drive(side, 1.0)], amps)[0][0]
            assert solved.error == [None] * amps.size
            traces = np.trace(solved.rho, axis1=1, axis2=2).real
            assert np.max(np.abs(traces - 1.0)) <= 1e-14
