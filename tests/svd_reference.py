"""The SVD null-vector steady-state solver, kept as a test reference.

This is the solver ``operators.steady_states`` replaced: one full SVD of the
stack, the right singular vector of the smallest singular value as vec(rho),
normalized by its trace. Its per-matrix tests and messages are those of
``steady_states``, in the same order, so the two can be compared point by
point: same verdict, same message, and states that agree to the accuracy a
null vector allows. It works on column-stacking Liouvillians, which
``hermitian_basis_change`` links to the real Hermitian coordinates
``steady_states`` takes, and ``unvec`` undoes the column stacking.

``index_table_rebuild`` is the rebuild of a density matrix from its real
Hermitian coordinates that ``operators._from_hermitian_coordinates``
replaced: a gather through a hand-built table of entry positions.
"""

import numpy as np

from qdiode.operators import (
    GAP_FACTOR,
    SolverError,
    _density_matrix_problems,
    vec,
)


def unvec(v):
    """The d x d matrix whose column stacking is ``v``."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(
            f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d, order="F")


def hermitian_basis_change(d):
    """V, whose columns are vec(B) for the orthonormal Hermitian basis of the
    real coordinates, in their order: E_jj, then (E_jk + E_kj)/sqrt(2), then
    i(E_jk - E_kj)/sqrt(2), each over j < k with k running fastest.

    Built from that definition alone, element by element: a column-stacking
    superoperator L has the real form V^dag L V, and a real-coordinate
    matrix R is V R V^dag in column stacking.
    """
    def unit(j, k):
        e = np.zeros((d, d), dtype=complex)
        e[j, k] = 1.0
        return e

    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    basis = ([unit(j, j) for j in range(d)]
             + [(unit(j, k) + unit(k, j)) / np.sqrt(2.0) for j, k in pairs]
             + [1j * (unit(j, k) - unit(k, j)) / np.sqrt(2.0)
                for j, k in pairs])
    return np.array([vec(b) for b in basis]).T


def index_table_rebuild(x, d):
    """The Hermitian d x d matrices whose real Hermitian coordinates are the
    rows of ``x``, each entry gathered from (rho_jj for each j, rho_jk for
    j < k, rho_kj for j < k) by its place in C order."""
    j, k = np.triu_indices(d, 1)
    order = np.empty(d * d, dtype=np.intp)
    order[np.arange(d) * (d + 1)] = np.arange(d)
    order[j * d + k] = d + np.arange(j.size)
    order[k * d + j] = d + j.size + np.arange(j.size)
    pairs = j.size
    upper = (x[:, d:d + pairs] + 1j * x[:, d + pairs:]) * np.sqrt(0.5)
    entries = np.concatenate([x[:, :d], upper, upper.conj()], axis=1)
    return entries[:, order].reshape(-1, d, d)


def svd_null_vector_states(lvs) -> list:
    lvs = np.asarray(lvs, dtype=complex)
    n, d2 = lvs.shape[:2]
    d = int(round(np.sqrt(d2)))
    _, svals, vh = np.linalg.svd(lvs)
    scale = np.where(svals[:, 0] > 0, svals[:, 0], 1.0)
    null_dim = np.sum(svals < scale[:, None] * 1e-10, axis=1)
    # vec is column stacking, so the C-order reshape of a null vector is rho^T.
    rho = vh[:, -1].conj().reshape(n, d, d).transpose(0, 2, 1)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    tr = np.trace(rho, axis1=1, axis2=2).real
    vanishing = np.abs(tr) < 1e-14
    rho = rho / np.where(vanishing, 1.0, tr)[:, None, None]
    resid = np.linalg.norm(lvs @ rho.transpose(0, 2, 1).reshape(n, d2, 1),
                           axis=(1, 2))
    bound = 1e-9 * np.maximum(np.linalg.norm(lvs, axis=(1, 2)), 1.0)
    problems = _density_matrix_problems(rho)
    results = []
    for k in range(n):
        if null_dim[k] == 0 and svals[k, -1] * GAP_FACTOR > svals[k, -2]:
            results.append(SolverError(
                f"no clear Liouvillian null space (smallest singular values "
                f"{svals[k, -1]:.3e}, {svals[k, -2]:.3e})"))
        elif null_dim[k] > 1:
            results.append(SolverError(
                f"degenerate steady state: null space dimension {null_dim[k]}"))
        elif vanishing[k]:
            results.append(SolverError(
                "null vector has vanishing trace; cannot normalize"))
        elif resid[k] > bound[k]:
            results.append(SolverError(
                f"steady-state residual too large: {resid[k]:.3e}"))
        elif problems[k] is not None:
            results.append(SolverError(
                f"steady state is not a density matrix: {problems[k]}"))
        else:
            results.append(rho[k])
    return results
