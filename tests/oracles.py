"""Small checks, readouts and slow solves that no mode uses, kept as test
oracles.

``check_density_matrix`` raises on the first density-matrix test a state
fails, ``transmission_numeric`` solves one emitter's master equation for
the transmission that ``single_qubit.transmission_analytic`` gives in
closed form, and ``integrated_inelastic`` integrates a spectrum over its
grid.
``linear_transmission`` is a two-emitter device's transmission in its
linear limit, from transfer matrices. ``sweep_null_gaps`` gives a diode
sweep's null gaps from the SVD and its lower bounds from direct inverses.
``broadcast_stack_spectrum`` and ``resolvent_spectrum_50_digits`` solve the
resolvent of ``qdiode.spectrum`` one frequency at a time: by an LU
factorization of each shifted matrix in double precision, and in 50-digit
arithmetic.
"""

import mpmath
import numpy as np

from qdiode.diode import _drive, diode_model
from qdiode.operators import (
    _density_matrix_problems,
    expectation,
    real_form,
    steady_state,
    steady_states,
    vec,
)
from qdiode.single_qubit import emitter_chain


def sweep_null_gaps(c, side, amps):
    """For one side of a diode sweep over the drive amplitudes ``amps``:
    each L's null gap s_{-2} / s_max from the SVD of ``steady_states``, and
    1 / (||M^-1||_F ||L||_F) from a direct inverse of each M, L with row 0
    replaced by the trace row scaled by ||L(0)||_F. The second is the lower
    bound ``pencil_states`` reports, formed without its eigendecomposition.
    """
    l0, l1 = (real_form(diode_model(c, *_drive(side, x))[0])
              for x in (0.0, 1.0))
    stack = l0 + np.asarray(amps)[:, None, None] * (l1 - l0)
    d = int(round(np.sqrt(l0.shape[0])))
    bordered = stack.copy()
    bordered[:, 0, :d] = np.linalg.norm(l0)
    bordered[:, 0, d:] = 0.0
    bound = 1.0 / (np.linalg.norm(np.linalg.inv(bordered), axis=(1, 2))
                   * np.linalg.norm(stack, axis=(1, 2)))
    return steady_states(stack).null_gap, bound


def check_density_matrix(rho):
    """Raise ValueError unless rho is a valid density matrix.

    Trace and Hermiticity are both held to TRACE_TOL; eigenvalues may dip to
    EIG_FLOOR.
    """
    problem = _density_matrix_problems(np.asarray(rho)[None])[0]
    if problem is not None:
        raise ValueError(problem)


def transmission_numeric(q, alpha=0.0):
    """Steady-state transmission <a_out>/alpha of one emitter at its own
    detuning ``q.omega_q``, driven from the left: ``steady_state`` of the
    one-emitter ``emitter_chain``. Raises ValueError for an undriven
    emitter."""
    if alpha == 0:
        raise ValueError("transmission requires a nonzero drive")
    lv, a_out, _ = emitter_chain([q], 1.0, alpha)
    return complex(expectation(a_out, steady_state(lv)) / alpha)


def integrated_inelastic(s):
    """Trapezoid integral of the inelastic PSD over its grid (photons/s)."""
    return float(np.trapezoid(s.inelastic_psd, s.freq_offsets))


def linear_transmission(c):
    """The weak-drive transmission of the two-emitter device ``c``, the same
    from either side. Each emitter scatters with r_k = -(gamma_r,k/2) /
    (gamma_2,k + i omega_q,k) and t_k = 1 + r_k, and the field between them
    gains e^{i phi} = ``c.phase`` each way, so the chain of transfer matrices
    gives t = t_1 t_2 e^{i phi} / (1 - r_1 r_2 e^{2 i phi}) (Lalumiere et
    al., PRA 88, 043806 (2013))."""
    r1, r2 = (-0.5 * q.gamma_r / (q.gamma_2 + 1j * q.omega_q)
              for q in (c.q1, c.q2))
    return (1 + r1) * (1 + r2) * c.phase / (1 - r1 * r2 * c.phase ** 2)


def broadcast_stack_spectrum(lv, rho_ss, out_op, omegas):
    """The resolvent spectrum as one batched LU solve of the stack
    L - P + i omega I over the grid, in column-stacking coordinates: the
    route ``inelastic_spectrum`` took before its pole-residue form."""
    n = lv.shape[0]
    rho_v = vec(rho_ss)
    dv = vec(out_op @ rho_ss) - np.trace(out_op @ rho_ss) * rho_v
    shifted = lv - np.outer(rho_v, vec(np.eye(rho_ss.shape[0])))
    mats = shifted[None, :, :] + 1j * omegas[:, None, None] * np.eye(n)
    x = np.linalg.solve(mats, np.broadcast_to(dv[:, None], (omegas.size, n, 1)))
    return -(x[:, :, 0] @ vec(out_op).conj()).real / np.pi


def resolvent_spectrum_50_digits(lv, rho_ss, out_op, omegas):
    """The resolvent spectrum of the same double-precision L, rho and A,
    solved in 50-digit arithmetic at each frequency and rounded once."""
    with mpmath.workdps(50):
        d = rho_ss.shape[0]
        op, rho = mpmath.matrix(out_op.tolist()), mpmath.matrix(rho_ss.tolist())
        op_rho = op * rho
        mean = sum(op_rho[i, i] for i in range(d))
        # Column stacking: entry (i, j) of a d x d matrix sits at i + j d.
        entries = [(i, j) for j in range(d) for i in range(d)]
        dv = mpmath.matrix([op_rho[i, j] - mean * rho[i, j] for i, j in entries])
        shifted = mpmath.matrix(lv.tolist())
        for k, (i, j) in enumerate(entries):
            for kk, (ii, jj) in enumerate(entries):
                if ii == jj:
                    shifted[k, kk] -= rho[i, j]
        spectrum = []
        for w in omegas:
            m = shifted.copy()
            for k in range(d * d):
                m[k, k] += mpmath.mpc(0, w)
            x = mpmath.lu_solve(m, dv)
            overlap = sum(mpmath.conj(op[i, j]) * xk
                          for (i, j), xk in zip(entries, x))
            spectrum.append(float(-mpmath.re(overlap) / mpmath.pi))
    return np.array(spectrum)
