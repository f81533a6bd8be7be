"""Dense operator algebra and Lindblad/Liouvillian machinery.

Everything here works on plain numpy arrays for Hilbert space dimensions 2
and 4. Two coordinate systems for a d x d density matrix are fixed here:

- column stacking (Fortran order), the one ``liouvillian_matrix`` uses:
  vec(A @ rho @ B) = kron(B.T, A) @ vec(rho);
- real Hermitian coordinates, the one the steady-state solver uses: the
  d^2 real numbers r = U vec(rho) of rho on the orthonormal Hermitian basis
  E_jj, (E_jk + E_kj)/sqrt(2), i(E_jk - E_kj)/sqrt(2) for j < k. In order,
  r holds rho_jj for each j, then sqrt(2) Re rho_jk, then sqrt(2) Im rho_jk,
  each over the pairs j < k in np.triu_indices order. U alone fixes this
  order, and U^dag rebuilds vec(rho) from r. U is unitary, and a Lindblad
  generator L preserves Hermiticity, so ``real_form(L)`` = U L U^dag is a
  real matrix with the singular values of L (the coherence-vector form of
  Alicki and Lendi, Quantum Dynamical Semigroups and Applications, 1987).

Basis conventions, fixed once for the whole package:
  single qubit:  |g> = (1, 0),  |e> = (0, 1),  sigma_z |g> = +|g>
  two qubits:    |gg>, |ge>, |eg>, |ee>, qubit 1 the left tensor factor
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# -----------------------------------------------------------------------------
#                           Elementary operators
# -----------------------------------------------------------------------------

# sigma_z|g> = +|g>; the qubit Hamiltonian -omega*sigma_z/2 then puts |e>
# above |g> by omega.
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |g><e|

# Hermiticity / trace tolerances for d <= 4 double precision work.
HERM_TOL = 1e-9
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
# With no singular value below 1e-10 of the largest, the smallest must sit
# this factor below the next one for a one-dimensional null space.
GAP_FACTOR = 1e6
# ``pencil_states`` keeps a point's pencil state only where the lower bound on
# its null gap is at least this, 100 x diode.NEAR_DEGENERATE_GAP, and
# its refined normwise backward error is at most PENCIL_BACKWARD_TOL, the
# resolvent's spectrum.RESOLVENT_BACKWARD_TOL.
PENCIL_MIN_GAP = 1e-6
PENCIL_BACKWARD_TOL = 1e-12
# Largest product of the Frobenius condition numbers of M0 and V whose
# factors ``pencil_states`` uses. On 600 sweeps of drawn lossy and lossless
# devices (delta 1e-7 to 0.25), pencil states stayed within 2% of the
# eps / gap agreement with the SVD's below 1e10 and within it below 1e12,
# and moved up to 50 times it above; every lossy device read below 2.5e5.
PENCIL_MAX_CONDITION = 1e10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product a (x) b with (a(x)b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]:
    np.kron of complex matrices bit for bit, as one broadcast product."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


@functools.cache
def _hermitian_coordinates(d: int) -> np.ndarray:
    """The unitary U with U vec(rho) = rho's real Hermitian coordinates
    (see the module docstring); built once per d, and read-only."""
    j, k = np.triu_indices(d, 1)
    re = d + np.arange(j.size)
    im = re + j.size
    u = np.zeros((d * d, d * d), dtype=complex)
    # vec is column stacking: rho_jk sits at j + k d.
    u[np.arange(d), np.arange(d) * (d + 1)] = 1.0
    u[re, j + k * d] = u[re, k + j * d] = np.sqrt(0.5)
    u[im, j + k * d] = -1j * np.sqrt(0.5)
    u[im, k + j * d] = 1j * np.sqrt(0.5)
    u.flags.writeable = False
    return u


def _from_hermitian_coordinates(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian d x d matrices whose real Hermitian coordinates are the
    rows of ``x``: unvec(U^dag r) for each row r."""
    v = x @ _hermitian_coordinates(d).conj()
    # vec is column stacking, so the C-order reshape of a row is rho^T.
    return v.reshape(-1, d, d).transpose(0, 2, 1).copy()


def _hilbert_dim(d2: int) -> int:
    """d >= 2 for a superoperator of size d^2; ValueError for any other size."""
    d = int(round(np.sqrt(d2)))
    if d < 2 or d * d != d2:
        raise ValueError(f"Liouvillian of size {d2} does not act on d x d "
                         f"matrices, d >= 2")
    return d


def real_form(lv: np.ndarray) -> np.ndarray:
    """A column-stacking superoperator L in real Hermitian coordinates:
    the real matrix U L U^dag (see the module docstring), which has the
    singular values of L.

    Raises ValueError unless L preserves Hermiticity, that is unless the
    imaginary part of U L U^dag is within 1e-12 of its largest entry.
    """
    lv = np.asarray(lv, dtype=complex)
    if lv.ndim != 2 or lv.shape[0] != lv.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lv.shape}")
    u = _hermitian_coordinates(_hilbert_dim(lv.shape[0]))
    m = u @ lv @ u.conj().T
    imag = np.max(np.abs(m.imag))
    if imag > 1e-12 * np.max(np.abs(m)):
        raise ValueError(f"superoperator does not preserve Hermiticity: its "
                         f"real form has an imaginary part of {imag:.3e}")
    return np.ascontiguousarray(m.real)


# -----------------------------------------------------------------------------
#                     Master equation building blocks
# -----------------------------------------------------------------------------

def liouvillian_matrix(h: np.ndarray, jumps: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """The column-stacking Liouvillian of -i[H,.] + sum_k gamma_k D[X_k]:

        L = -i (1 (x) H - H^T (x) 1)
            + sum_k gamma_k (X_k^* (x) X_k - (1 (x) Y_k + Y_k^T (x) 1) / 2)

    with Y_k = X_k^dag X_k. ``jumps`` is a list of (rate, operator) pairs;
    rates must be finite and nonnegative, H must be a Hermitian square
    matrix and every jump operator must have H's shape. A zero-rate jump is
    skipped, so callers list every channel.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be a square matrix, got shape "
                         f"{h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERM_TOL * max(1.0, np.max(np.abs(h))):
        raise ValueError("Hamiltonian is not Hermitian")
    ident = np.eye(h.shape[0], dtype=complex)
    lv = -1j * (kron(ident, h) - kron(h.T, ident))
    for k, (rate, op) in enumerate(jumps):
        x = np.asarray(op, dtype=complex)
        if x.shape != h.shape:
            raise ValueError(f"jump {k} has shape {x.shape}, but the "
                             f"Hamiltonian has shape {h.shape}")
        if not np.isfinite(rate):
            raise ValueError(f"non-finite jump rate {rate} (jump {k})")
        if rate < 0:
            raise ValueError(f"negative jump rate {rate}")
        if rate > 0:
            xdx = x.conj().T @ x
            lv = lv + rate * (kron(x.conj(), x)
                              - 0.5 * (kron(ident, xdx) + kron(xdx.T, ident)))
    return lv


# -----------------------------------------------------------------------------
#                          Solvers and checks
# -----------------------------------------------------------------------------

class SolverError(RuntimeError):
    """Steady-state failure (degenerate null space etc.)."""


class SteadyStates(NamedTuple):
    """``steady_states`` of N Liouvillians, one entry per matrix: ``rho``
    (N, d, d), all NaN where a matrix failed; ``error``, the message of the
    test it failed, or None; ``null_gap``, s_{-2} / s_max, how far its null
    space is from degenerate (NaN for a non-finite matrix), or from
    ``pencil_states`` on a point its pencil solved, a lower bound on
    s_{-2} / s_max; ``residual``, ||L r|| (||L vec(rho)|| for the
    column-stacking L), NaN where no normalized state was formed."""

    rho: np.ndarray
    error: list
    null_gap: np.ndarray
    residual: np.ndarray


def steady_states(lvs) -> SteadyStates:
    """Steady states of a stack of Liouvillians in real Hermitian
    coordinates (``real_form``), from batched singular values and one
    batched bordered linear solve, all in real arithmetic.

    ``lvs`` is a real array of shape (N, d^2, d^2); a complex array raises
    ValueError, since a column-stacking Liouvillian must first go through
    ``real_form``. Each matrix gets its density matrix, or NaN and the
    message of the test it fails, in input order (see ``SteadyStates``).
    A matrix with a non-finite entry fails alone, with NaN null gap. The
    singular values alone (no singular vectors) decide whether a matrix has
    a one-dimensional null space:

    - with no singular value below 1e-10 of the largest, the smallest must
      sit GAP_FACTOR below the next, or there is no clear null space;
    - a degenerate null space (more than one singular value below that
      threshold) is reported with its estimated dimension.

    For the matrices that pass, row 0 (the rho_00 equation, redundant by
    trace preservation) is replaced by the trace row, s_max on the rho_jj
    coordinates and 0 elsewhere, and M r = s_max e_0 is solved for all of
    them in one batched solve. The row is scaled to the rest of M because a
    unit row beside entries of size s_max lets the solve's rounding reach
    tr rho: up to 1.3e-10, above TRACE_TOL, on lossless devices with
    gamma_r = 4.4e8/s. For a unit null vector v this gives r = v / tr v,
    the coordinates of rho with tr rho = 1, so

    - a null vector of vanishing trace cannot be normalized: ||r|| > 1e14,
      a non-finite r, or an exactly singular M;
    - the residual ||L r|| must stay below 1e-9 max(||L||, 1);
    - rho, rebuilt from r and so Hermitian by construction, must pass
      ``_density_matrix_problems``, whose message the error keeps.
    """
    lvs = np.asarray(lvs)
    if np.iscomplexobj(lvs):
        raise ValueError("steady_states takes real matrices in Hermitian "
                         "coordinates; convert each column-stacking "
                         "Liouvillian with real_form")
    lvs = np.asarray(lvs, dtype=float)
    if lvs.ndim != 3 or lvs.shape[1] != lvs.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {lvs.shape}")
    n, d2 = lvs.shape[:2]
    _hilbert_dim(d2)                  # a size that is no d^2 raises here
    # A non-finite matrix would fail the SVD of the whole stack: it is
    # solved as zeros, and fails alone.
    finite = np.isfinite(lvs).all(axis=(1, 2))
    if not finite.all():
        lvs = np.where(finite[:, None, None], lvs, 0.0)
    svals = np.linalg.svd(lvs, compute_uv=False)
    scale = np.where(svals[:, 0] > 0, svals[:, 0], 1.0)
    null_dim = np.sum(svals < scale[:, None] * 1e-10, axis=1)
    no_gap = (null_dim == 0) & (svals[:, -1] * GAP_FACTOR > svals[:, -2])
    passed = ~no_gap & (null_dim <= 1)
    x = np.full((n, d2), np.nan)
    x[passed] = _solve_for_e0(_bordered(lvs[passed], scale[passed]),
                              scale[passed])
    # ||L||_F from the singular values, scaled by s_max so no square overflows.
    frobenius = scale * np.sqrt(np.sum((svals / scale[:, None]) ** 2, axis=1))
    rho, resid, problems = _checked_states(lvs, x, frobenius)
    errors = []
    for k, (fin, gapless, dim) in enumerate(zip(
            finite.tolist(), no_gap.tolist(), null_dim.tolist())):
        if not fin:
            errors.append("Liouvillian has non-finite entries")
        elif gapless:
            errors.append(f"no clear Liouvillian null space (smallest "
                          f"singular values {svals[k, -1]:.3e}, "
                          f"{svals[k, -2]:.3e})")
        elif dim > 1:
            errors.append(f"degenerate steady state: null space dimension {dim}")
        else:
            errors.append(problems[k])
    rho[np.array([e is not None for e in errors], dtype=bool)] = np.nan
    return SteadyStates(rho, errors,
                        np.where(finite, svals[:, -2] / scale, np.nan), resid)


def pencil_states(l0, l1, xs) -> SteadyStates:
    """``steady_states`` of L(x) = l0 + x (l1 - l0) at each real x in
    ``xs``, for real d^2 x d^2 ``l0`` and ``l1`` in Hermitian coordinates,
    from one eigendecomposition for the whole sweep.

    The bordered matrix is affine in x too. With a border scale s fixed for
    the sweep, M(x) = M0 + x B', where M0 is l0 with row 0 replaced by the
    trace row (s on the rho_jj coordinates) and B' is l1 - l0 with row 0
    zeroed. With M0^-1 B' = V diag(lambda) V^-1, the pole-residue form

        r(x) = V diag(1 / (1 + x lambda)) V^-1 M0^-1 s e_0

    solves M(x) r = s e_0, and ||M(x)^-1||_F is a d^2 x d^2 quadratic form
    in 1 / (1 + x lambda_k). Row 0 is a rank-one change of L(x), so by
    Weyl's inequalities b(x) = 1 / (||M(x)^-1||_F ||L(x)||_F) is at most the
    null gap s_{-2} / s_max that ``steady_states`` reports.

    The eigenvector route is only conditionally stable, so r takes one step
    of iterative refinement through the same factors against the exact
    M(x). A point keeps the pencil's state, with b(x) as its ``null_gap``,
    only where b(x) proves that the SVD rule of ``steady_states`` passes it:

    - b(x) >= PENCIL_MIN_GAP, so the null space has one dimension;
    - GAP_FACTOR ||L r|| / ||r|| <= 1 / ||M(x)^-1||_F <= s_{-2}, so the
      smallest singular value sits GAP_FACTOR below the next;
    - its refined normwise backward error ||s e_0 - M(x) r|| /
      (||M(x)||_F ||r|| + s) is at most PENCIL_BACKWARD_TOL;
    - and it passes the checks of ``_checked_states``, which every solved
      point of ``steady_states`` passes.

    Every other point is solved by ``steady_states`` of its L(x), as is
    every point of a sweep whose factors cannot be formed or are too
    ill-conditioned to trust (see ``_pencil_factors``), so each failure,
    its message and each null gap below PENCIL_MIN_GAP are the SVD's. A
    point's bits do not depend on the other points of its sweep: its sums
    are ``np.einsum`` contractions of its own row, never a matrix product
    whose blocking depends on the number of points.
    """
    l0, l1 = np.asarray(l0), np.asarray(l1)
    if np.iscomplexobj(l0) or np.iscomplexobj(l1):
        raise ValueError("pencil_states takes real matrices in Hermitian "
                         "coordinates; convert each column-stacking "
                         "Liouvillian with real_form")
    l0, l1 = np.asarray(l0, dtype=float), np.asarray(l1, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if l0.ndim != 2 or l0.shape[0] != l0.shape[1] or l1.shape != l0.shape:
        raise ValueError(f"expected two square matrices of one shape, got "
                         f"shapes {l0.shape} and {l1.shape}")
    if xs.ndim != 1:
        raise ValueError(f"xs must be 1-d, got shape {xs.shape}")
    lvs = l0 + xs[:, None, None] * (l1 - l0)
    n = xs.size
    at, pencil = _pencil_points(lvs, xs, _pencil_factors(l0, l1))
    if 0 < at.size == n:
        return pencil
    rest = np.ones(n, dtype=bool)
    rest[at] = False
    solved = steady_states(lvs[rest] if at.size else lvs)
    if not at.size:
        return solved
    out = SteadyStates(np.empty((n,) + solved.rho.shape[1:], dtype=complex),
                       [None] * n, np.empty(n), np.empty(n))
    for field in ("rho", "null_gap", "residual"):
        getattr(out, field)[at] = getattr(pencil, field)
        getattr(out, field)[rest] = getattr(solved, field)
    for k, e in zip(np.flatnonzero(rest).tolist(), solved.error):
        out.error[k] = e
    return out


def _pencil_points(lvs: np.ndarray, xs: np.ndarray, factors):
    """The points of ``pencil_states``' sweep whose pencil state it keeps,
    as an index array, and their ``SteadyStates`` (None without a point):
    none where ``factors`` is None, and no work beyond the bound on a point
    whose bound is below PENCIL_MIN_GAP."""
    if factors is None:
        return np.zeros(0, dtype=int), None
    scale, lam, v, w, gram = factors
    d2 = lvs.shape[1]
    # A pole on the grid (1 + x lambda_k = 0) gives a NaN bound: no pencil.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = 1.0 / (1.0 + xs[:, None] * lam)
        inv_norm = np.sqrt(np.einsum("nk,nk->n", p.conj(),
                                     np.einsum("kl,nl->nk", gram, p)).real)
        frobenius = np.sqrt(np.einsum("nij,nij->n", lvs, lvs))
        bound = 1.0 / (inv_norm * frobenius)
        take = np.flatnonzero(bound >= PENCIL_MIN_GAP)
        if not take.size:
            return take, None
        lt, pt = lvs[take], p[take]
        m = _bordered(lt, scale)
        rhs = np.zeros((take.size, d2))
        rhs[:, 0] = scale
        r = np.einsum("ik,nk->ni", v, pt * (scale * w[:, 0])).real
        res = rhs - np.einsum("nij,nj->ni", m, r)
        r += np.einsum("ik,nk->ni", v,
                       pt * np.einsum("ki,ni->nk", w, res)).real
        res = rhs - np.einsum("nij,nj->ni", m, r)
        r_norm = np.sqrt(np.einsum("ni,ni->n", r, r))
        m_norm = np.sqrt(np.einsum("nij,nij->n", m, m))
        backward = (np.sqrt(np.einsum("ni,ni->n", res, res))
                    / (m_norm * r_norm + scale))
    rho, resid, messages = _checked_states(lt, r, frobenius[take])
    kept = ((backward <= PENCIL_BACKWARD_TOL)
            & (GAP_FACTOR * resid / r_norm <= 1.0 / inv_norm[take])
            & np.array([e is None for e in messages], dtype=bool))
    at = take[kept]
    return at, SteadyStates(rho[kept], [None] * at.size, bound[at],
                            resid[kept])


def _pencil_factors(l0: np.ndarray, l1: np.ndarray):
    """The factors of ``pencil_states``' sweep from l0 to l1: the border
    scale s = ||l0||_F; the eigenvalues lambda and eigenvectors V of
    M0^-1 B'; W = V^-1 M0^-1; and the Hermitian G, G_kl = (V^H V)_kl
    (W W^H)_lk, with ||M(x)^-1||_F^2 = p^H G p for p_k = 1 / (1 + x lambda_k).

    None where they cannot be trusted: an end that is not finite, an
    ``inv`` or ``eig`` that fails, or a product of the Frobenius condition
    numbers of M0 and V above PENCIL_MAX_CONDITION, as on a sweep that
    starts from a degenerate null space.
    """
    if not (np.isfinite(l0).all() and np.isfinite(l1).all()):
        return None
    scale = float(np.linalg.norm(l0))
    m0 = _bordered(l0, scale)
    b = l1 - l0
    b[0] = 0.0
    try:
        m0_inv = np.linalg.inv(m0)
        condition = np.linalg.norm(m0) * np.linalg.norm(m0_inv)
        if not condition <= PENCIL_MAX_CONDITION:
            return None
        lam, v = np.linalg.eig(m0_inv @ b)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    condition *= np.linalg.norm(v) * np.linalg.norm(v_inv)
    if not condition <= PENCIL_MAX_CONDITION:
        return None
    w = v_inv @ m0_inv
    gram = (v.conj().T @ v) * (w @ w.conj().T).T
    return scale, lam, v, w, gram


def _bordered(lvs: np.ndarray, scale) -> np.ndarray:
    """A copy of each L in a stack with row 0, the rho_00 equation, replaced
    by the trace row: ``scale`` (one per L, or one for all) on the rho_jj
    coordinates and 0 elsewhere."""
    d = _hilbert_dim(lvs.shape[-1])
    m = np.array(lvs, dtype=float)
    m[..., 0, :d] = np.asarray(scale)[..., None]
    m[..., 0, d:] = 0.0
    return m


def _checked_states(lvs: np.ndarray, x: np.ndarray, frobenius: np.ndarray):
    """The checks every solved point passes, on the coordinates ``x`` (one
    row per L in ``lvs``, NaN where no solve was made) whose trace row sums
    to 1: rho (zero where x cannot be normalized), the residual ||L x|| (NaN
    there) and, for each point, the message of the first check it fails,
    or None.

    - x must be finite, with ||x|| <= 1e14: a null vector of vanishing trace
      cannot be normalized;
    - the residual ||L x|| must stay below 1e-9 max(``frobenius``, 1);
    - rho, rebuilt from x and so Hermitian by construction, must pass
      ``_density_matrix_problems``, whose message the error keeps.
    """
    normalizable = (np.all(np.isfinite(x), axis=1)
                    & (np.linalg.norm(x, axis=1) <= 1e14))
    x = np.where(normalizable[:, None], x, 0.0)
    rho = _from_hermitian_coordinates(x, _hilbert_dim(x.shape[1]))
    resid = np.linalg.norm(lvs @ x[:, :, None], axis=(1, 2))
    too_large = (resid > 1e-9 * np.maximum(frobenius, 1.0)).tolist()
    problems = _density_matrix_problems(rho)
    messages = []
    for k, normal in enumerate(normalizable.tolist()):
        if not normal:
            messages.append("null vector has vanishing trace; cannot normalize")
        elif too_large[k]:
            messages.append(f"steady-state residual too large: {resid[k]:.3e}")
        elif problems[k] is not None:
            messages.append(f"steady state is not a density matrix: "
                            f"{problems[k]}")
        else:
            messages.append(None)
    return rho, np.where(normalizable, resid, np.nan), messages


def _solve_for_e0(ms: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """x with M x = scale e_0 for each M and scale in a stack, in one
    batched solve; a row of NaN for an exactly singular M.

    numpy fails the whole stack when one member is singular, so only then
    is each member solved on its own.
    """
    rhs = np.zeros(ms.shape[:2] + (1,))
    rhs[:, 0, 0] = scale
    try:
        return np.linalg.solve(ms, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(ms.shape[:2], np.nan)
        for k, (m, b) in enumerate(zip(ms, rhs)):
            try:
                x[k] = np.linalg.solve(m, b)[:, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def steady_state(lv: np.ndarray) -> np.ndarray:
    """Steady state of one column-stacking Liouvillian: ``steady_states`` on
    its ``real_form``, raising SolverError with its message."""
    solved = steady_states(real_form(lv)[None])
    if solved.error[0] is not None:
        raise SolverError(solved.error[0])
    return solved.rho[0]


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


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr{op rho}."""
    return complex(np.trace(np.asarray(op) @ np.asarray(rho)))
