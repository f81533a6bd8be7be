"""The one emitter-chain builder against the per-model reference builders.

``emitter_chain`` replaced a Hamiltonian, an output-operator and a
Liouvillian builder for each model; ``model_reference`` keeps them as
oracles. On drawn devices under complex drives from both sides, the chain
must give each model's L, a_out and b_out to 1e-14 of the largest entry.
"""

import model_reference as ref
import numpy as np
from device_strategies import (
    PROPERTY,
    drive_amplitudes,
    lossy_devices,
    single_qubit_devices,
)
from hypothesis import given

from qdiode.diode import diode_model
from qdiode.single_qubit import emitter_chain


def assert_each_matches(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@PROPERTY
@given(lossy_devices(), drive_amplitudes, drive_amplitudes)
def test_diode_model_matches_the_reference_diode(c, alpha, beta):
    alpha, beta = alpha * np.sqrt(c.gamma_bar), beta * np.sqrt(c.gamma_bar)
    assert_each_matches(diode_model(c, alpha, beta),
                        (ref.build_diode_liouvillian(c, alpha, beta),
                         *ref.diode_output_ops(c, alpha, beta)))


@PROPERTY
@given(single_qubit_devices(), drive_amplitudes, drive_amplitudes)
def test_one_emitter_chain_matches_the_reference_single_qubit(q, alpha, beta):
    alpha, beta = alpha * np.sqrt(q.gamma_r), beta * np.sqrt(q.gamma_r)
    assert_each_matches(emitter_chain([q], 1.0, alpha, beta),
                        (ref.build_single_qubit_liouvillian(q, alpha, beta),
                         *ref.single_qubit_output_ops(q, alpha, beta)))
