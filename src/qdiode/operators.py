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


def steady_state(lv: np.ndarray) -> np.ndarray:
    """Steady state from the Liouvillian null space via SVD.

    The smallest singular vector gives vec(rho_ss); a degenerate null space
    (second singular value not well separated from the smallest) raises
    SolverError with the estimated multiplicity.
    """
    lv = np.asarray(lv, dtype=complex)
    _, svals, vh = np.linalg.svd(lv)
    scale = svals[0] if svals[0] > 0 else 1.0
    null_dim = int(np.sum(svals < scale * 1e-10))
    if null_dim == 0:
        # Fall back on a separation test: the smallest singular value must sit
        # far below the next one for a numerically one-dimensional null space.
        if svals[-1] * GAP_FACTOR > svals[-2]:
            raise SolverError(
                f"no clear Liouvillian null space (smallest singular values "
                f"{svals[-1]:.3e}, {svals[-2]:.3e})")
    elif null_dim > 1:
        raise SolverError(f"degenerate steady state: null space dimension {null_dim}")
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise SolverError("null vector has vanishing trace; cannot normalize")
    rho = rho / tr
    resid = np.linalg.norm(lv @ vec(rho))
    if resid > 1e-9 * max(np.linalg.norm(lv), 1.0):
        raise SolverError(f"steady-state residual too large: {resid:.3e}")
    return rho


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


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a valid density matrix.

    Trace and Hermiticity are both held to TRACE_TOL; eigenvalues may dip to
    EIG_FLOOR.
    """
    rho = np.asarray(rho)
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(np.trace(rho) - 1.0):.3e}")
    if np.max(np.abs(rho - rho.conj().T)) > TRACE_TOL:
        raise ValueError("state is not Hermitian")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if evals.min() < EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {evals.min():.3e}")


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr{op rho}."""
    return complex(np.trace(np.asarray(op) @ np.asarray(rho)))
