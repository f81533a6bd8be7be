"""The SVD null-vector steady-state solver, kept as a test reference.

This is the solver ``operators.steady_states`` replaced: one full SVD of the
stack, the right singular vector of the smallest singular value as vec(rho),
normalized by its trace. Its per-matrix tests and messages are those of
``steady_states``, in the same order, so the two can be compared point by
point: same verdict, same message, and states that agree to the accuracy a
null vector allows.
"""

import numpy as np

from qdiode.operators import GAP_FACTOR, SolverError, _density_matrix_problems


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
