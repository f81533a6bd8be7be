"""Small checks and readouts that no mode uses, kept as test oracles.

``check_density_matrix`` raises on the first density-matrix test a state
fails, ``transmission_numeric`` reads one point of the detuning sweep, and
``integrated_inelastic`` integrates a spectrum over its grid.
"""

import numpy as np

from qdiode.operators import _density_matrix_problems
from qdiode.single_qubit import transmission_vs_detuning


def check_density_matrix(rho):
    """Raise ValueError unless rho is a valid density matrix.

    Trace and Hermiticity are both held to TRACE_TOL; eigenvalues may dip to
    EIG_FLOOR.
    """
    problem = _density_matrix_problems(np.asarray(rho)[None])[0]
    if problem is not None:
        raise ValueError(problem)


def transmission_numeric(q, alpha=0.0, beta=0.0):
    """Steady-state transmission from the full master equation at the
    emitter's own detuning: ``transmission_vs_detuning`` at ``q.omega_q``."""
    return complex(transmission_vs_detuning(q, [q.omega_q], alpha, beta)[0])


def integrated_inelastic(s):
    """Trapezoid integral of the inelastic PSD over its grid (photons/s)."""
    return float(np.trapezoid(s.inelastic_psd, s.freq_offsets))
