"""Per-model master-equation builders, kept as oracles for the chain builder.

These are the single-qubit and diode builders that ``emitter_chain`` and
``diode_model`` replaced, written out term by term for each model. The
diode applies gamma_phi D[sigma_z] to each qubit, the single qubit
(gamma_phi/2) D[sigma_z].
"""

import numpy as np

from qdiode.operators import SIGMA_MINUS, SIGMA_Z, kron, liouvillian_matrix

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_MINUS_1 = kron(SIGMA_MINUS, IDENTITY_2)
SIGMA_MINUS_2 = kron(IDENTITY_2, SIGMA_MINUS)
SIGMA_Z_1 = kron(SIGMA_Z, IDENTITY_2)
SIGMA_Z_2 = kron(IDENTITY_2, SIGMA_Z)


def single_qubit_hamiltonian(q, alpha=0.0, beta=0.0):
    """Rotating-frame Hamiltonian including the coherent drive terms."""
    coupling = np.sqrt(q.gamma_r / 2.0)
    amp = alpha + beta
    h = -0.5 * q.omega_q * SIGMA_Z
    h = h - 0.5j * coupling * (amp * SIGMA_PLUS - np.conj(amp) * SIGMA_MINUS)
    return h


def single_qubit_output_ops(q, alpha=0.0, beta=0.0):
    """Displaced output-field operators (a_out, b_out)."""
    jump = np.sqrt(q.gamma_r / 2.0) * SIGMA_MINUS
    return jump + alpha * IDENTITY_2, jump + beta * IDENTITY_2


def build_single_qubit_liouvillian(q, alpha=0.0, beta=0.0):
    """4x4 Liouvillian of the driven single-emitter master equation."""
    h = single_qubit_hamiltonian(q, alpha, beta)
    a_out, b_out = single_qubit_output_ops(q, alpha, beta)
    return liouvillian_matrix(h, [(1.0, a_out), (1.0, b_out),
                                  (q.gamma_nr, SIGMA_MINUS),
                                  (0.5 * q.gamma_phi, SIGMA_Z)])


def diode_hamiltonian(c, alpha=0.0, beta=0.0):
    """H_T in the drive's rotating frame, including drive and cascade terms."""
    l1 = np.sqrt(c.q1.gamma_r / 2.0) * SIGMA_MINUS_1
    l2 = np.sqrt(c.q2.gamma_r / 2.0) * SIGMA_MINUS_2
    phase = c.phase
    h = -0.5 * c.q1.omega_q * SIGMA_Z_1 - 0.5 * c.q2.omega_q * SIGMA_Z_2
    h = h - 0.5j * (alpha * l1.conj().T - np.conj(alpha) * l1)
    h = h - 0.5j * (beta * l2.conj().T - np.conj(beta) * l2)
    casc1 = phase * l2.conj().T @ (l1 + alpha * IDENTITY_4)
    casc2 = phase * l1.conj().T @ (l2 + beta * IDENTITY_4)
    h = h - 0.5j * (casc1 - casc1.conj().T)
    h = h - 0.5j * (casc2 - casc2.conj().T)
    return h


def diode_output_ops(c, alpha=0.0, beta=0.0):
    """Right- and left-moving output field operators (a_out, b_out)."""
    l1 = np.sqrt(c.q1.gamma_r / 2.0) * SIGMA_MINUS_1
    l2 = np.sqrt(c.q2.gamma_r / 2.0) * SIGMA_MINUS_2
    phase = c.phase
    a_out = (alpha * IDENTITY_4 + l1) * phase + l2
    b_out = (beta * IDENTITY_4 + l2) * phase + l1
    return a_out, b_out


def build_diode_liouvillian(c, alpha=0.0, beta=0.0):
    """16x16 Liouvillian of the cascaded two-qubit master equation."""
    h = diode_hamiltonian(c, alpha, beta)
    a_out, b_out = diode_output_ops(c, alpha, beta)
    return liouvillian_matrix(h, [(1.0, a_out), (1.0, b_out),
                                  (c.q1.gamma_nr, SIGMA_MINUS_1),
                                  (c.q2.gamma_nr, SIGMA_MINUS_2),
                                  (c.q1.gamma_phi, SIGMA_Z_1),
                                  (c.q2.gamma_phi, SIGMA_Z_2)])
