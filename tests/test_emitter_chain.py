"""The one emitter-chain builder against the per-model reference builders.

``emitter_chain`` replaced a Hamiltonian, an output-operator and a
Liouvillian builder for each model; ``model_reference`` keeps them as
oracles. On drawn devices under complex drives from both sides, the chain
must give each model's L, a_out and b_out to 1e-14 of the largest entry.
A sweep's models at 0 and 1, built with the dissipators assembled once,
must be the chain's bit for bit.
"""

from dataclasses import replace

import model_reference as ref
import numpy as np
from device_strategies import (
    PROPERTY,
    drive_amplitudes,
    lossy_devices,
    single_qubit_devices,
)
from hypothesis import given

from qdiode.diode import _drive_sweep, diode_model
from qdiode.single_qubit import _sweep_ends, emitter_chain


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


def assert_each_is(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


@PROPERTY
@given(lossy_devices(), drive_amplitudes, drive_amplitudes)
def test_drive_sweep_ends_are_the_diode_model(c, alpha, beta):
    # Forward, reverse and two-sided drives share the one model at 0.
    alpha, beta = alpha * np.sqrt(c.gamma_bar), beta * np.sqrt(c.gamma_bar)
    drives = [(alpha, 0.0), (0.0, beta), (alpha, beta)]
    for drive, (*_, (zero, one)) in zip(drives,
                                         _drive_sweep(c, drives, [1.0])):
        assert_each_is(zero, diode_model(c))
        assert_each_is(one, diode_model(c, *drive))


@PROPERTY
@given(single_qubit_devices(), drive_amplitudes)
def test_detuning_sweep_ends_are_the_chain(q, alpha):
    alpha = alpha * np.sqrt(q.gamma_r)
    ends = [([replace(q, omega_q=det)], 1.0, alpha, 0.0) for det in (0.0, 1.0)]
    for got, end in zip(_sweep_ends(ends[0], ends[1:]), ends):
        assert_each_is(got, emitter_chain(*end))
