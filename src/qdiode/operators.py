"""Dense operator algebra and Lindblad/Liouvillian machinery.

Everything here works on plain complex numpy arrays for Hilbert space
dimensions 2 and 4. Density matrices are vectorized by column stacking
(Fortran order), so  vec(A @ rho @ B) = kron(B.T, A) @ vec(rho).

Basis conventions, fixed once for the whole package:
  single qubit:  |g> = (1, 0),  |e> = (0, 1),  sigma_z |g> = +|g>
  two qubits:    |gg>, |ge>, |eg>, |ee>, qubit 1 the left tensor factor
"""

from __future__ import annotations

import numpy as np

# -----------------------------------------------------------------------------
#                           Elementary operators
# -----------------------------------------------------------------------------

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

# sigma_z|g> = +|g>; the qubit Hamiltonian -omega*sigma_z/2 then puts |e>
# above |g> by omega.
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T

# Hermiticity / trace tolerances for d <= 4 double precision work.
HERM_TOL = 1e-9
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
# With no singular value below 1e-10 of the largest, the smallest must sit
# this factor below the next one for a one-dimensional null space.
GAP_FACTOR = 1e6


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product a (x) b with (a(x)b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def embed_qubit1(op: np.ndarray) -> np.ndarray:
    """Lift a single-qubit operator onto qubit 1 of the two-qubit space."""
    return kron(op, IDENTITY_2)


def embed_qubit2(op: np.ndarray) -> np.ndarray:
    """Lift a single-qubit operator onto qubit 2 of the two-qubit space."""
    return kron(IDENTITY_2, op)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d, order="F")


# -----------------------------------------------------------------------------
#                     Master equation building blocks
# -----------------------------------------------------------------------------

def dissipator_apply(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[X] rho = X rho X^dag - (X^dag X rho + rho X^dag X)/2."""
    x = np.asarray(x, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if x.shape != rho.shape or x.shape[0] != x.shape[1]:
        raise ValueError(f"dimension mismatch: operator {x.shape} vs state {rho.shape}")
    xdx = x.conj().T @ x
    return x @ rho @ x.conj().T - 0.5 * (xdx @ rho + rho @ xdx)


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[H, .] in column-stacking convention."""
    h = np.asarray(h, dtype=complex)
    ident = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(ident, h) - np.kron(h.T, ident))


def dissipator_superop(x: np.ndarray) -> np.ndarray:
    """Superoperator of D[X] in column-stacking convention."""
    x = np.asarray(x, dtype=complex)
    ident = np.eye(x.shape[0], dtype=complex)
    xdx = x.conj().T @ x
    return np.kron(x.conj(), x) - 0.5 * (np.kron(ident, xdx) + np.kron(xdx.T, ident))


def liouvillian_matrix(h: np.ndarray, jumps: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Build the full Liouvillian for -i[H,.] + sum_k gamma_k D[X_k].

    ``jumps`` is a list of (rate, operator) pairs; rates must be nonnegative
    and H must be Hermitian. A zero-rate jump is skipped, so callers list
    every channel.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be square")
    if np.max(np.abs(h - h.conj().T)) > HERM_TOL * max(1.0, np.max(np.abs(h))):
        raise ValueError("Hamiltonian is not Hermitian")
    lv = hamiltonian_superop(h)
    for rate, op in jumps:
        if rate < 0:
            raise ValueError(f"negative jump rate {rate}")
        if rate > 0:
            lv = lv + rate * dissipator_superop(op)
    return lv


# -----------------------------------------------------------------------------
#                          Solvers and checks
# -----------------------------------------------------------------------------

class SolverError(RuntimeError):
    """Steady-state or propagation failure (degenerate null space etc.)."""


def steady_states(lvs, info: dict | None = None) -> list:
    """Steady states of a stack of Liouvillians, from batched singular
    values and one batched bordered linear solve.

    ``lvs`` has shape (N, d^2, d^2). Each matrix gets its density matrix or
    the SolverError it fails with, in input order. The singular values alone
    (no singular vectors) decide whether a matrix has a one-dimensional null
    space:

    - with no singular value below 1e-10 of the largest, the smallest must
      sit GAP_FACTOR below the next, or there is no clear null space;
    - a degenerate null space (more than one singular value below that
      threshold) is reported with its estimated dimension.

    For the matrices that pass, row 0 (the rho_00 equation, redundant by
    trace preservation) is replaced by the trace functional vec(I)^T, and
    M x = e_0 is solved for all of them in one batched solve. For a unit
    null vector v this gives x = v / tr v = vec(rho) with tr rho = 1, so

    - a null vector of vanishing trace cannot be normalized: ||x|| > 1e14,
      a non-finite x, or an exactly singular M;
    - the residual ||L vec(rho)|| must stay below 1e-9 max(||L||, 1);
    - rho must pass ``check_density_matrix``, whose message the error keeps.

    If ``info`` is a dict, ``info["null_gap"]`` is set to each matrix's
    s_{-2} / s_max, its second-smallest singular value over its largest: how
    far the null space is from degenerate.
    """
    lvs = np.asarray(lvs, dtype=complex)
    if lvs.ndim != 3 or lvs.shape[1] != lvs.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {lvs.shape}")
    n, d2 = lvs.shape[:2]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise ValueError(f"Liouvillian of size {d2} does not act on square matrices")
    if n == 0:
        if info is not None:
            info["null_gap"] = np.zeros(0)
        return []
    svals = np.linalg.svd(lvs, compute_uv=False)
    scale = np.where(svals[:, 0] > 0, svals[:, 0], 1.0)
    if info is not None:
        info["null_gap"] = svals[:, -2] / scale
    null_dim = np.sum(svals < scale[:, None] * 1e-10, axis=1)
    no_gap = (null_dim == 0) & (svals[:, -1] * GAP_FACTOR > svals[:, -2])
    passed = ~no_gap & (null_dim <= 1)
    bordered = lvs[passed]
    bordered[:, 0, :] = vec(np.eye(d))
    x = np.zeros((n, d2), dtype=complex)
    x[passed] = _solve_for_e0(bordered)
    normalizable = (passed & np.all(np.isfinite(x), axis=1)
                    & (np.linalg.norm(x, axis=1) <= 1e14))
    x[~normalizable] = 0.0
    # vec is column stacking, so the C-order reshape of x is rho^T.
    rho = x.reshape(n, d, d).transpose(0, 2, 1)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    resid = np.linalg.norm(lvs @ rho.transpose(0, 2, 1).reshape(n, d2, 1),
                           axis=(1, 2))
    # ||L||_F is the root sum of squares of the singular values.
    frobenius = np.sqrt(np.sum(svals ** 2, axis=1))
    too_large = (resid > 1e-9 * np.maximum(frobenius, 1.0)).tolist()
    problems = _density_matrix_problems(rho)
    results = []
    for k, (gapless, dim, normal) in enumerate(zip(no_gap.tolist(),
                                                   null_dim.tolist(),
                                                   normalizable.tolist())):
        if gapless:
            results.append(SolverError(
                f"no clear Liouvillian null space (smallest singular values "
                f"{svals[k, -1]:.3e}, {svals[k, -2]:.3e})"))
        elif dim > 1:
            results.append(SolverError(
                f"degenerate steady state: null space dimension {dim}"))
        elif not normal:
            results.append(SolverError(
                "null vector has vanishing trace; cannot normalize"))
        elif too_large[k]:
            results.append(SolverError(
                f"steady-state residual too large: {resid[k]:.3e}"))
        elif problems[k] is not None:
            results.append(SolverError(
                f"steady state is not a density matrix: {problems[k]}"))
        else:
            results.append(rho[k])
    return results


def _solve_for_e0(ms: np.ndarray) -> np.ndarray:
    """x with M x = e_0 for each M in a stack, in one batched solve; a row
    of NaN for an exactly singular M.

    numpy fails the whole stack when one member is singular, so only then
    is each member solved on its own.
    """
    rhs = np.zeros(ms.shape[:2] + (1,), dtype=complex)
    rhs[:, 0] = 1.0
    try:
        return np.linalg.solve(ms, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(ms.shape[:2], np.nan, dtype=complex)
        for k, (m, b) in enumerate(zip(ms, rhs)):
            try:
                x[k] = np.linalg.solve(m, b)[:, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def steady_state(lv: np.ndarray) -> np.ndarray:
    """Steady state of one Liouvillian: ``steady_states`` on a stack of one,
    raising its SolverError."""
    result = steady_states(np.asarray(lv, dtype=complex)[None])[0]
    if isinstance(result, SolverError):
        raise result
    return result


def evolve(rho0: np.ndarray, lv: np.ndarray, t: float) -> np.ndarray:
    """Propagate rho0 for time t under the Liouvillian: unvec(expm(L t) vec(rho0))."""
    from scipy.linalg import expm  # imported here: no CLI mode needs scipy

    if t < 0:
        raise ValueError("evolution time must be nonnegative")
    if t == 0.0:
        return np.array(rho0, dtype=complex, copy=True)
    lv = np.asarray(lv, dtype=complex)
    # Guard against overflow for extreme L*t: the dynamics is contractive, so
    # splitting the interval keeps expm's internal scaling well conditioned.
    norm_lt = np.linalg.norm(lv, ord=np.inf) * t
    n_steps = max(1, int(np.ceil(norm_lt / 1e4)))
    prop = expm(lv * (t / n_steps))
    v = vec(rho0)
    for _ in range(n_steps):
        v = prop @ v
    return unvec(v)


def _density_matrix_problems(rhos: np.ndarray) -> list:
    """For each state in a stack, the first density-matrix test it fails
    (as a message), or None.

    Trace and Hermiticity are both held to TRACE_TOL; eigenvalues may dip to
    EIG_FLOOR. One eigvalsh call covers the whole stack.
    """
    rhos = np.asarray(rhos)
    trace_err = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    rhos_h = rhos.conj().swapaxes(-1, -2)
    herm_err = np.max(np.abs(rhos - rhos_h), axis=(-2, -1))
    eig_min = np.linalg.eigvalsh(0.5 * (rhos + rhos_h)).min(axis=-1)
    problems = []
    for t_err, h_err, e_min in zip(trace_err.tolist(), herm_err.tolist(),
                                   eig_min.tolist()):
        if t_err > TRACE_TOL:
            problems.append(f"trace deviates from 1 by {t_err:.3e}")
        elif h_err > TRACE_TOL:
            problems.append("state is not Hermitian")
        elif e_min < EIG_FLOOR:
            problems.append(f"negative eigenvalue {e_min:.3e}")
        else:
            problems.append(None)
    return problems


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a valid density matrix.

    Trace and Hermiticity are both held to TRACE_TOL; eigenvalues may dip to
    EIG_FLOOR.
    """
    problem = _density_matrix_problems(np.asarray(rho)[None])[0]
    if problem is not None:
        raise ValueError(problem)


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr{op rho}."""
    return complex(np.trace(np.asarray(op) @ np.asarray(rho)))
