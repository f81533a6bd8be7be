"""Properties of the stacked steady-state solver on drawn devices.

``operators.steady_states`` checks each Liouvillian's singular values and
solves the bordered system (row 0 replaced by the trace functional) for
vec(rho). These properties compare it with the SVD null-vector reference it
replaced, and pin two physics invariants: every state it returns is a
density matrix, and a symmetric lossless device at delta = 0, whose dark
state never decays, has no unique steady state at any power.
"""

import numpy as np
from device_strategies import PROPERTY, lossy_devices, powers_over_gbar, sides
from hypothesis import given
from hypothesis import strategies as st
from svd_reference import svd_null_vector_states

from qdiode.diode import DiodeConfig, _one_sided, _solve_side, power_sweep
from qdiode.operators import SolverError, check_density_matrix, steady_states
from qdiode.single_qubit import QubitParams

power_lists = st.lists(powers_over_gbar, min_size=1, max_size=6)


def side_stack(c, side, amps):
    """The Liouvillians L0 + a L1 a sweep solves at amplitudes ``amps``."""
    lv0, _ = _one_sided(c, side, 0.0)
    lv1, _ = _one_sided(c, side, 1.0)
    return lv0 + amps[:, None, None] * (lv1 - lv0)


@PROPERTY
@given(lossy_devices(), power_lists, sides)
def test_bordered_solve_matches_the_svd_reference(c, ps, side):
    stack = side_stack(c, side, np.sqrt(np.sort(ps) * c.gamma_bar))
    info = {}
    got = steady_states(stack, info)
    want = svd_null_vector_states(stack)
    for rho, ref, gap in zip(got, want, info["null_gap"]):
        if isinstance(ref, SolverError):
            assert isinstance(rho, SolverError)
            assert str(rho) == str(ref)
            continue
        assert not isinstance(rho, SolverError), str(rho)
        # Both are backward stable, so each null vector is accurate to about
        # eps / gap: 1e-12 wherever the null gap exceeds 1e-3 (every
        # benchmark device), and no better than the conditioning below that.
        assert np.max(np.abs(rho - ref)) <= max(1e-12, 1e-15 / gap)


@PROPERTY
@given(lossy_devices(), power_lists)
def test_every_returned_state_is_a_density_matrix(c, ps):
    amps = np.sqrt(np.sort(ps) * c.gamma_bar)
    for side in ("forward", "reverse"):
        for point in _solve_side(c, side, amps):
            if not isinstance(point, SolverError):
                rho = point[2]
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


def test_power_sweep_reports_the_smallest_null_gap():
    q1 = QubitParams(omega_q=-0.03, gamma_r=1.0, gamma_nr=0.02, gamma_phi=0.01)
    q2 = QubitParams(omega_q=0.0, gamma_r=0.9, gamma_nr=0.02, gamma_phi=0.01)
    c = DiodeConfig(q1, q2, 0.03)
    powers = np.geomspace(1e-3, 10.0, 7) * c.gamma_bar
    info = {}
    rows = power_sweep(c, powers, info=info)
    assert all(r.error is None for r in rows)
    gaps = []
    for side in ("forward", "reverse"):
        side_info = {}
        steady_states(side_stack(c, side, np.sqrt(powers)), side_info)
        gaps.extend(side_info["null_gap"])
    assert info["min_null_gap"] == min(gaps)
