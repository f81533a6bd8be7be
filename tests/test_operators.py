"""Superoperator construction and steady-state solver checks.

The vectorized Liouvillian is verified against direct evaluation of the
master-equation right-hand side on random density matrices, so the kron
bookkeeping is tested independently of any physics built on top of it.
"""

import ast
import glob
import os
import warnings

import numpy as np
import pytest
from device_strategies import PROPERTY
from hypothesis import given
from hypothesis import strategies as st
from oracles import check_density_matrix
from svd_reference import (hermitian_basis_change, index_table_rebuild,
                           svd_null_vector_states, unvec)

from qdiode.operators import (
    SIGMA_MINUS,
    SIGMA_Z,
    SolverError,
    _from_hermitian_coordinates,
    expectation,
    kron,
    liouvillian_matrix,
    pencil_states,
    real_form,
    steady_state,
    steady_states,
    vec,
)


def random_density_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def dissipator_apply(x, rho):
    """D[X] rho = X rho X^dag - (X^dag X rho + rho X^dag X)/2, evaluated
    directly on the matrices: the superoperators' oracle."""
    xdx = x.conj().T @ x
    return x @ rho @ x.conj().T - 0.5 * (xdx @ rho + rho @ xdx)


def decaying_liouvillian(delta_omega=0.3, drive=0.8, gamma=1.0):
    """Driven decaying qubit with a unique steady state."""
    h = -0.5 * delta_omega * SIGMA_Z + drive * (SIGMA_MINUS + SIGMA_MINUS.T)
    return liouvillian_matrix(h, [(gamma, SIGMA_MINUS)])


def numpy_uses_outside(name, owner):
    """Each use of numpy's ``name`` in src/qdiode, as file:line, outside the
    body of the function ``owner`` of operators.py: an attribute np.<name>
    or numpy.<name>, or a ``from numpy import <name>``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "qdiode")
    paths = glob.glob(os.path.join(src, "**", "*.py"), recursive=True)
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        owner_defs = [f for f in tree.body
                      if isinstance(f, ast.FunctionDef) and f.name == owner
                      and os.path.basename(path) == "operators.py"]
        allowed = {id(n) for f in owner_defs for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses = (node.attr == name
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy"))
            elif isinstance(node, ast.ImportFrom):
                uses = (node.module == "numpy"
                        and any(a.name == name for a in node.names))
            else:
                continue
            if uses and id(node) not in allowed:
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    return found


# ----------------------------------------------------------------------------
#                        Elementary building blocks
# ----------------------------------------------------------------------------

class TestKronAndVec:
    def test_kron_matches_index_formula(self):
        a = random_matrix(3, 1)
        b = random_matrix(2, 2)
        k = kron(a, b)
        for i in range(3):
            for j in range(3):
                for m in range(2):
                    for n in range(2):
                        np.testing.assert_allclose(
                            k[2 * i + m, 2 * j + n], a[i, j] * b[m, n])

    @PROPERTY
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]),
           st.sampled_from([2, 4]))
    def test_kron_is_np_kron_bit_for_bit(self, seed, da, db):
        rng = np.random.default_rng(seed)
        a, b = random_matrix(da, rng), random_matrix(db, rng)
        for m in (a, b):
            # Signed zeros, whose products np.kron also keeps.
            m.real[rng.random(m.shape) < 0.2] = -0.0
            m.imag[rng.random(m.shape) < 0.2] = 0.0
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()

    def test_np_kron_only_inside_operators_kron(self):
        # operators.kron is the package's one tensor product.
        assert numpy_uses_outside("kron", "kron") == []

    def test_np_triu_indices_only_inside_hermitian_coordinates(self):
        # U is the one table of the real-coordinate order: a second table
        # of the pairs j < k could order them differently.
        assert numpy_uses_outside("triu_indices",
                                  "_hermitian_coordinates") == []

    def test_vec_unvec_round_trip(self):
        rho = random_matrix(4, 3)
        np.testing.assert_array_equal(unvec(vec(rho)), rho)

    def test_vec_identity_sandwich(self):
        # vec(A rho B) = (B^T kron A) vec(rho), the identity everything rests on
        a = random_matrix(4, 4)
        b = random_matrix(4, 5)
        rho = random_matrix(4, 6)
        np.testing.assert_allclose(
            kron(b.T, a) @ vec(rho), vec(a @ rho @ b), atol=1e-12)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5))


class TestSuperoperators:
    def test_hamiltonian_superop_is_commutator(self):
        h = random_matrix(4, 7)
        h = h + h.conj().T
        rho = random_density_matrix(4, 8)
        direct = -1j * (h @ rho - rho @ h)
        np.testing.assert_allclose(
            unvec(liouvillian_matrix(h, []) @ vec(rho)), direct, atol=1e-12)

    def test_dissipator_superop_term_by_term(self):
        x = random_matrix(4, 9)
        rho = random_density_matrix(4, 10)
        direct = (x @ rho @ x.conj().T
                  - 0.5 * x.conj().T @ x @ rho
                  - 0.5 * rho @ x.conj().T @ x)
        lv = liouvillian_matrix(np.zeros_like(x), [(1.0, x)])
        np.testing.assert_allclose(unvec(lv @ vec(rho)), direct, atol=1e-12)
        np.testing.assert_allclose(dissipator_apply(x, rho), direct,
                                   atol=1e-12)

    def test_liouvillian_matches_direct_rhs(self):
        h = random_matrix(4, 11)
        h = h + h.conj().T
        x1 = random_matrix(4, 12)
        x2 = random_matrix(4, 13)
        lv = liouvillian_matrix(h, [(0.7, x1), (1.3, x2)])
        rho = random_density_matrix(4, 14)
        direct = (-1j * (h @ rho - rho @ h)
                  + 0.7 * dissipator_apply(x1, rho)
                  + 1.3 * dissipator_apply(x2, rho))
        np.testing.assert_allclose(unvec(lv @ vec(rho)), direct, atol=1e-12)

    def test_liouvillian_is_trace_free(self):
        lv = decaying_liouvillian()
        for seed in range(5):
            rho = random_density_matrix(2, seed)
            np.testing.assert_allclose(np.trace(unvec(lv @ vec(rho))), 0.0,
                                       atol=1e-12)

    def test_zero_rate_jump_is_dropped(self):
        h = 0.5 * SIGMA_Z
        np.testing.assert_array_equal(
            liouvillian_matrix(h, [(0.0, SIGMA_MINUS)]),
            liouvillian_matrix(h, []))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            liouvillian_matrix(np.eye(2), [(-1.0, SIGMA_MINUS)])

    @pytest.mark.parametrize("rate, message", [
        (float("nan"), "non-finite jump rate nan"),
        (float("inf"), "non-finite jump rate inf"),
        (-float("inf"), "non-finite jump rate -inf"),
        (-1.0, "negative jump rate -1.0"),
    ])
    def test_rejects_a_bad_rate_naming_it(self, rate, message):
        # NaN fails both `rate < 0` and `rate > 0`: unchecked, its jump
        # would be dropped without a word.
        with pytest.raises(ValueError, match=message):
            liouvillian_matrix(np.eye(2), [(0.5, SIGMA_MINUS),
                                           (rate, SIGMA_MINUS)])

    @pytest.mark.parametrize("h", [np.zeros(3), np.zeros((2, 3)),
                                   np.zeros((1, 2, 2))],
                             ids=["1-d", "non-square", "3-d"])
    def test_rejects_a_hamiltonian_that_is_not_a_square_matrix(self, h):
        with pytest.raises(ValueError, match="must be a square matrix"):
            liouvillian_matrix(h, [])

    @pytest.mark.parametrize("rate", [1.0, 0.0])
    def test_mismatched_jump_names_its_index_and_both_shapes(self, rate):
        with pytest.raises(ValueError, match=r"jump 1 has shape \(2, 2\), "
                           r"but the Hamiltonian has shape \(4, 4\)"):
            liouvillian_matrix(np.eye(4), [(1.0, np.eye(4)),
                                           (rate, SIGMA_MINUS)])

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            liouvillian_matrix(random_matrix(2, 15), [])

    def test_rejects_mismatched_jump_dimension(self):
        with pytest.raises(ValueError):
            liouvillian_matrix(np.eye(4), [(1.0, SIGMA_MINUS)])


# ----------------------------------------------------------------------------
#                              Steady state
# ----------------------------------------------------------------------------

class TestSteadyState:
    def test_fixed_point_of_the_flow(self):
        lv = decaying_liouvillian()
        rho = steady_state(lv)
        np.testing.assert_allclose(lv @ vec(rho), 0.0, atol=1e-10)
        np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-12)
        check_density_matrix(rho)

    def test_matches_long_time_evolution(self):
        lv = decaying_liouvillian()
        rho_ss = steady_state(lv)
        from scipy.linalg import expm
        rho_t = unvec(expm(lv * 200.0) @ vec(random_density_matrix(2, 20)))
        np.testing.assert_allclose(rho_t, rho_ss, atol=1e-9)

    def test_undriven_qubit_relaxes_to_ground(self):
        lv = liouvillian_matrix(0.4 * SIGMA_Z, [(1.0, SIGMA_MINUS)])
        rho = steady_state(lv)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_null_space_raises(self):
        # No dissipation at all: every rho commuting with sigma_z is steady.
        lv = liouvillian_matrix(0.5 * SIGMA_Z, [])
        with pytest.raises(SolverError):
            steady_state(lv)

    def test_scale_invariance(self):
        lv = decaying_liouvillian()
        np.testing.assert_allclose(steady_state(lv), steady_state(1e9 * lv),
                                   atol=1e-10)


def column_stacking(real_lvs):
    """Real-coordinate superoperators V R V^dag in column stacking."""
    v = hermitian_basis_change(int(round(np.sqrt(real_lvs.shape[-1]))))
    return v @ real_lvs @ v.conj().T


def annihilating(rho, seed):
    """A generic real matrix in Hermitian coordinates whose only null vector
    holds the coordinates of rho."""
    v = hermitian_basis_change(rho.shape[0])
    u = (v.conj().T @ vec(rho)).real
    u /= np.linalg.norm(u)
    projector = np.eye(u.size) - np.outer(u, u)
    return random_matrix(u.size, seed).real @ projector


class TestRealForm:
    """Column-stacking superoperators in real Hermitian coordinates."""

    def test_matches_the_basis_definition(self):
        lv = decaying_liouvillian()
        v = hermitian_basis_change(2)
        want = v.conj().T @ lv @ v
        got = real_form(lv)
        assert got.dtype == float
        np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-15)
        assert np.max(np.abs(want.imag)) <= 1e-15

    def test_rejects_a_map_that_breaks_hermiticity(self):
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            real_form(random_matrix(16, 60))

    @pytest.mark.parametrize("shape", [(16,), (4, 3), (3, 3), (1, 1), (0, 0)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            real_form(np.zeros(shape))


@st.composite
def coordinate_rows(draw):
    """d in {2, 4} and rows of d^2 real coordinates with magnitudes from
    1e-300 to 1e14, some of them +0.0 or -0.0."""
    d = draw(st.sampled_from([2, 4]))
    value = st.builds(lambda sign, m, e: sign * m * 10.0 ** e,
                      st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99),
                      st.integers(-300, 13))
    x = np.array(draw(st.lists(st.lists(value, min_size=d * d,
                                        max_size=d * d),
                               min_size=1, max_size=6)))
    for k, zero in draw(st.lists(st.tuples(st.integers(0, x.size - 1),
                                           st.sampled_from([0.0, -0.0])),
                                 max_size=x.size // 2)):
        x.flat[k] = zero
    return d, x


class TestHermitianCoordinates:
    """The rebuild of rho from r through U^dag against the index table."""

    @PROPERTY
    @given(coordinate_rows())
    def test_rebuild_matches_the_index_table(self, case):
        d, x = case
        got = _from_hermitian_coordinates(x, d)
        want = index_table_rebuild(x, d)
        assert got.shape == want.shape == (x.shape[0], d, d)
        assert np.all(got == want)
        # A zero coordinate may come back with the other sign of zero.
        for k in np.flatnonzero(np.all(x != 0, axis=1)):
            assert got[k].tobytes() == want[k].tobytes()


class TestSteadyStates:
    """The stacked solver against one solve per matrix."""

    @staticmethod
    def mixed_stack():
        from qdiode.diode import DiodeConfig, diode_model
        from qdiode.single_qubit import QubitParams

        q1 = QubitParams(omega_q=-0.03, gamma_r=1.0, gamma_nr=0.02,
                         gamma_phi=0.01)
        q2 = QubitParams(omega_q=0.0, gamma_r=0.9, gamma_nr=0.02,
                         gamma_phi=0.01)
        lossy = DiodeConfig(q1, q2, 0.03)
        ideal = QubitParams(omega_q=0.0, gamma_r=1.0)
        return np.array([
            real_form(diode_model(lossy, 0.3, 0.0)[0]),
            # delta = 0, lossless: the dark state never decays.
            real_form(diode_model(DiodeConfig(ideal, ideal, 0.0),
                                  0.2, 0.0)[0]),
            # No null space at all.
            random_matrix(16, 60).real,
            real_form(diode_model(lossy, 0.0, 1.5)[0]),
            annihilating(np.diag([1.0, -1.0, 0.0, 0.0]), 61),
            annihilating(np.diag([0.6, 0.5, 0.1, -0.2]), 62),
            real_form(diode_model(lossy, 0.0, 0.0)[0]),
        ])

    def test_matches_one_solve_per_matrix(self):
        stack = self.mixed_stack()
        solved = steady_states(stack)
        kinds = []
        for k, lv in enumerate(stack):
            want = steady_states(lv[None])
            assert solved.error[k] == want.error[0]
            np.testing.assert_array_equal(solved.rho[k], want.rho[0])
            kinds.append("ok" if want.error[0] is None
                         else want.error[0].split(":")[0].split(" (")[0])
        assert kinds == ["ok", "degenerate steady state",
                         "no clear Liouvillian null space", "ok",
                         "null vector has vanishing trace; cannot normalize",
                         "steady state is not a density matrix", "ok"]

    def test_invalid_state_carries_the_check_message(self):
        rho = np.diag([0.6, 0.5, 0.1, -0.2])
        with pytest.raises(ValueError) as check:
            check_density_matrix(rho)
        assert str(check.value) == "negative eigenvalue -2.000e-01"
        solved = steady_states(annihilating(rho, 62)[None])
        assert solved.error == ["steady state is not a density matrix: "
                                + str(check.value)]
        assert np.all(np.isnan(solved.rho))

    def test_solved_states_pass_the_density_matrix_check(self):
        solved = steady_states(self.mixed_stack())
        for rho, error in zip(solved.rho, solved.error):
            if error is None:
                check_density_matrix(rho)
                np.testing.assert_array_equal(rho, rho.conj().T)
            else:
                assert np.all(np.isnan(rho))

    def test_mixed_stack_matches_the_svd_reference(self):
        stack = self.mixed_stack()
        solved = steady_states(stack)
        for got, error, want in zip(solved.rho, solved.error,
                                    svd_null_vector_states(
                                        column_stacking(stack))):
            if isinstance(want, SolverError):
                assert error == str(want)
            else:
                assert error is None
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_singular_bordered_matrix_fails_alone(self):
        # d = 2 and one null vector, on the traceless sqrt(2) Re rho_01
        # coordinate: with row 0 replaced by the trace row s_max (1, 1, 0, 0)
        # the bordered matrix keeps L's zero row 2, which numpy would raise
        # on for the whole stack.
        singular = -np.diag([1.0, 1.0, 0.0, 1.0])
        good = [real_form(decaying_liouvillian()),
                real_form(decaying_liouvillian(0.1, 0.5, 2.0))]
        solved = steady_states(np.array([good[0], singular, good[1]]))
        assert solved.error == [None, "null vector has vanishing trace; "
                                "cannot normalize", None]
        assert np.all(np.isnan(solved.rho[1]))
        np.testing.assert_array_equal(solved.rho[::2],
                                      steady_states(np.array(good)).rho)

    def test_non_finite_matrix_fails_alone(self, capfd):
        # Unmasked, a NaN entry fails the batched SVD for every member, and
        # an inf entry makes LAPACK complain on stderr and the residual
        # product warn (an error under this suite's warning filter).
        good = self.mixed_stack()[[0, 3, 6, 1]]
        nan, inf = good[0].copy(), good[2].copy()
        nan[3, 5] = np.nan
        inf[0, 0] = np.inf
        stack = np.array([good[0], nan, good[1], good[2], inf, good[3]])
        solved = steady_states(stack)
        want = steady_states(good)
        keep = [0, 2, 3, 5]
        assert [solved.error[k] for k in keep] == want.error
        for got, ref in ((solved.rho[keep], want.rho),
                         (solved.null_gap[keep], want.null_gap),
                         (solved.residual[keep], want.residual)):
            np.testing.assert_array_equal(got, ref)
        for k in (1, 4):
            assert solved.error[k] == "Liouvillian has non-finite entries"
            assert np.all(np.isnan(solved.rho[k]))
            assert np.isnan(solved.null_gap[k])
            assert np.isnan(solved.residual[k])
        assert capfd.readouterr().err == ""

    def test_reports_the_null_gap_and_residual(self):
        stack = self.mixed_stack()
        solved = steady_states(stack)
        svals = np.linalg.svd(stack, compute_uv=False)
        np.testing.assert_allclose(solved.null_gap,
                                   svals[:, -2] / svals[:, 0], rtol=1e-12)
        for lv, rho, error, resid in zip(column_stacking(stack), solved.rho,
                                         solved.error, solved.residual):
            if error is None:
                np.testing.assert_allclose(
                    resid, np.linalg.norm(lv @ vec(rho)), rtol=0, atol=1e-15)
        # The vanishing-trace case forms no normalized state.
        assert np.isnan(solved.residual[4])

    def test_norm_does_not_overflow_at_huge_rates(self):
        # ||L||_F from the squared singular values would overflow, with a
        # RuntimeWarning, once s_max passes 1.3e154.
        m = self.mixed_stack()[0]
        solved = steady_states(1e160 * m[None])
        assert solved.error == [None]
        np.testing.assert_allclose(solved.rho[0],
                                   steady_states(m[None]).rho[0],
                                   rtol=0, atol=1e-14)

    def test_empty_stack(self):
        solved = steady_states(np.zeros((0, 4, 4)))
        assert solved.rho.shape == (0, 2, 2)
        assert solved.error == []
        assert solved.null_gap.shape == (0,)
        assert solved.residual.shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 3), (1, 3, 3),
                                       (2, 1, 1), (1, 0, 0)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            steady_states(np.zeros(shape))

    @pytest.mark.parametrize("l0, l1, xs, match", [
        (np.eye(4), np.eye(16), [1.0], "one shape"),
        (np.eye(4), np.eye(4), [[1.0]], "1-d"),
        (np.eye(3), np.eye(3), [1.0], "size 3 "),
        (np.eye(4) + 0j, np.eye(4), [1.0], "real_form"),
    ])
    def test_pencil_states_rejects_bad_input(self, l0, l1, xs, match):
        with pytest.raises(ValueError, match=match):
            pencil_states(l0, l1, xs)

    def test_steady_state_rejects_a_one_level_liouvillian(self):
        with pytest.raises(ValueError, match="size 1 "):
            steady_state(np.zeros((1, 1)))

    def test_rejects_a_complex_stack_naming_real_form(self):
        stack = np.array([decaying_liouvillian()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real_form"):
                steady_states(stack)

    def test_steady_state_takes_a_column_stacking_liouvillian(self):
        lv = decaying_liouvillian()
        rho = steady_state(lv)
        np.testing.assert_array_equal(
            rho, steady_states(real_form(lv)[None]).rho[0])
        assert np.linalg.norm(lv @ vec(rho)) < 1e-14


class TestExpectation:
    def test_against_trace_formula(self):
        op = random_matrix(4, 50)
        rho = random_density_matrix(4, 51)
        np.testing.assert_allclose(expectation(op, rho),
                                   np.trace(op @ rho), atol=1e-12)
