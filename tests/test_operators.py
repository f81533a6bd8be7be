"""Superoperator construction and steady-state solver checks.

The vectorized Liouvillian is verified against direct evaluation of the
master-equation right-hand side on random density matrices, so the kron
bookkeeping is tested independently of any physics built on top of it.
"""

import numpy as np
import pytest
from svd_reference import svd_null_vector_states

from qdiode.operators import (
    SIGMA_MINUS,
    SIGMA_Z,
    SolverError,
    check_density_matrix,
    dagger,
    dissipator_apply,
    dissipator_superop,
    evolve,
    expectation,
    hamiltonian_superop,
    kron,
    liouvillian_matrix,
    steady_state,
    steady_states,
    unvec,
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


def decaying_liouvillian(delta_omega=0.3, drive=0.8, gamma=1.0):
    """Driven decaying qubit with a unique steady state."""
    h = -0.5 * delta_omega * SIGMA_Z + drive * (SIGMA_MINUS + SIGMA_MINUS.T)
    return liouvillian_matrix(h, [(gamma, SIGMA_MINUS)])


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
        h = h + dagger(h)
        rho = random_density_matrix(4, 8)
        direct = -1j * (h @ rho - rho @ h)
        np.testing.assert_allclose(unvec(hamiltonian_superop(h) @ vec(rho)),
                                   direct, atol=1e-12)

    def test_dissipator_superop_term_by_term(self):
        x = random_matrix(4, 9)
        rho = random_density_matrix(4, 10)
        direct = (x @ rho @ dagger(x)
                  - 0.5 * dagger(x) @ x @ rho
                  - 0.5 * rho @ dagger(x) @ x)
        np.testing.assert_allclose(unvec(dissipator_superop(x) @ vec(rho)),
                                   direct, atol=1e-12)
        np.testing.assert_allclose(dissipator_apply(x, rho), direct,
                                   atol=1e-12)

    def test_liouvillian_matches_direct_rhs(self):
        h = random_matrix(4, 11)
        h = h + dagger(h)
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

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            liouvillian_matrix(random_matrix(2, 15), [])

    def test_rejects_mismatched_jump_dimension(self):
        with pytest.raises(ValueError):
            liouvillian_matrix(np.eye(4), [(1.0, SIGMA_MINUS)])


# ----------------------------------------------------------------------------
#                     Steady state and time evolution
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
        rho_t = evolve(random_density_matrix(2, 20), lv, 200.0)
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


def annihilating(rho, seed):
    """A generic Liouvillian-shaped matrix whose only null vector is vec(rho)."""
    u = vec(rho) / np.linalg.norm(vec(rho))
    projector = np.eye(u.size) - np.outer(u, u.conj())
    return random_matrix(u.size, seed) @ projector


class TestSteadyStates:
    """The stacked solver against one solve per matrix."""

    @staticmethod
    def mixed_stack():
        from qdiode.diode import DiodeConfig, build_diode_liouvillian
        from qdiode.single_qubit import QubitParams

        q1 = QubitParams(omega_q=-0.03, gamma_r=1.0, gamma_nr=0.02,
                         gamma_phi=0.01)
        q2 = QubitParams(omega_q=0.0, gamma_r=0.9, gamma_nr=0.02,
                         gamma_phi=0.01)
        lossy = DiodeConfig(q1, q2, 0.03)
        ideal = QubitParams(omega_q=0.0, gamma_r=1.0)
        return [
            build_diode_liouvillian(lossy, 0.3, 0.0),
            # delta = 0, lossless: the dark state never decays.
            build_diode_liouvillian(DiodeConfig(ideal, ideal, 0.0), 0.2, 0.0),
            # No null space at all.
            random_matrix(16, 60),
            build_diode_liouvillian(lossy, 0.0, 1.5),
            annihilating(np.diag([1.0, -1.0, 0.0, 0.0]), 61),
            annihilating(np.diag([0.6, 0.5, 0.1, -0.2]), 62),
            build_diode_liouvillian(lossy, 0.0, 0.0),
        ]

    def test_matches_one_solve_per_matrix(self):
        stack = self.mixed_stack()
        results = steady_states(np.array(stack))
        kinds = []
        for lv, got in zip(stack, results):
            try:
                want = steady_state(lv)
            except SolverError as exc:
                assert isinstance(got, SolverError)
                assert str(got) == str(exc)
                kinds.append(str(exc).split(":")[0].split(" (")[0])
            else:
                np.testing.assert_array_equal(got, want)
                kinds.append("ok")
        assert kinds == ["ok", "degenerate steady state",
                         "no clear Liouvillian null space", "ok",
                         "null vector has vanishing trace; cannot normalize",
                         "steady state is not a density matrix", "ok"]

    def test_invalid_state_carries_the_check_message(self):
        rho = np.diag([0.6, 0.5, 0.1, -0.2])
        with pytest.raises(ValueError) as check:
            check_density_matrix(rho)
        assert str(check.value) == "negative eigenvalue -2.000e-01"
        with pytest.raises(SolverError, match=str(check.value)):
            steady_state(annihilating(rho, 62))

    def test_solved_states_pass_the_density_matrix_check(self):
        for got in steady_states(np.array(self.mixed_stack())):
            if not isinstance(got, SolverError):
                check_density_matrix(got)

    def test_mixed_stack_matches_the_svd_reference(self):
        stack = np.array(self.mixed_stack())
        for got, want in zip(steady_states(stack),
                             svd_null_vector_states(stack)):
            if isinstance(want, SolverError):
                assert isinstance(got, SolverError)
                assert str(got) == str(want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_singular_bordered_matrix_fails_alone(self):
        # d = 2 and one null vector, vec(|1><0|), whose trace is zero: with
        # row 0 replaced by vec(I)^T = (1, 0, 0, 1) the bordered matrix has
        # a zero row, which numpy would raise on for the whole stack.
        singular = -np.diag([1.0, 0.0, 1.0, 1.0]).astype(complex)
        good = [decaying_liouvillian(), decaying_liouvillian(0.1, 0.5, 2.0)]
        results = steady_states(np.array([good[0], singular, good[1]]))
        assert isinstance(results[1], SolverError)
        assert str(results[1]) == ("null vector has vanishing trace; "
                                   "cannot normalize")
        for got, want in zip(results[::2], steady_states(np.array(good))):
            np.testing.assert_array_equal(got, want)

    def test_info_reports_the_null_gap(self):
        stack = np.array(self.mixed_stack())
        info = {}
        steady_states(stack, info)
        svals = np.linalg.svd(stack, compute_uv=False)
        np.testing.assert_allclose(info["null_gap"],
                                   svals[:, -2] / svals[:, 0], rtol=1e-12)

    def test_empty_stack(self):
        assert steady_states(np.zeros((0, 4, 4), dtype=complex)) == []
        info = {}
        steady_states(np.zeros((0, 4, 4), dtype=complex), info)
        assert info["null_gap"].shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 3), (1, 3, 3)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            steady_states(np.zeros(shape, dtype=complex))


class TestEvolve:
    def test_zero_time_is_identity(self):
        lv = decaying_liouvillian()
        rho = random_density_matrix(2, 31)
        np.testing.assert_array_equal(evolve(rho, lv, 0.0), rho)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(np.eye(2) / 2, decaying_liouvillian(), -1.0)

    def test_semigroup_property(self):
        lv = decaying_liouvillian()
        rho = random_density_matrix(2, 32)
        one_step = evolve(rho, lv, 3.0)
        two_step = evolve(evolve(rho, lv, 1.2), lv, 1.8)
        np.testing.assert_allclose(one_step, two_step, atol=1e-11)

    def test_linearity(self):
        lv = decaying_liouvillian()
        r1 = random_density_matrix(2, 33)
        r2 = random_density_matrix(2, 34)
        mixed = evolve(0.3 * r1 + 0.7 * r2, lv, 0.9)
        parts = 0.3 * evolve(r1, lv, 0.9) + 0.7 * evolve(r2, lv, 0.9)
        np.testing.assert_allclose(mixed, parts, atol=1e-11)

    def test_preserves_trace_and_positivity(self):
        lv = decaying_liouvillian()
        for seed in range(4):
            rho = evolve(random_density_matrix(2, 40 + seed), lv, 0.7)
            np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-11)
            evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
            assert evals.min() > -1e-10


class TestExpectation:
    def test_against_trace_formula(self):
        op = random_matrix(4, 50)
        rho = random_density_matrix(4, 51)
        np.testing.assert_allclose(expectation(op, rho),
                                   np.trace(op @ rho), atol=1e-12)
