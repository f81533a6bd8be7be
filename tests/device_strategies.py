"""Hypothesis strategies and settings shared by the property tests.

Devices and drives are drawn from fixed physical ranges; the settings
derandomize Hypothesis, so every run tests the same examples.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from qdiode.diode import DiodeConfig, optimal_tuning
from qdiode.single_qubit import QubitParams

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


@st.composite
def lossy_devices(draw):
    """A two-qubit device with gamma_r1, gamma_r2 in [0.5, 2], delta in
    [1e-3, 0.3], gamma_nr and gamma_phi in [0, 0.1] gbar, at optimal tuning."""
    gr1 = draw(st.floats(0.5, 2.0))
    gr2 = draw(st.floats(0.5, 2.0))
    delta = draw(st.floats(1e-3, 0.3))
    gbar = np.sqrt(gr1 * gr2)
    gamma_nr = draw(st.floats(0.0, 0.1)) * gbar
    gamma_phi = draw(st.floats(0.0, 0.1)) * gbar
    w1, w2 = optimal_tuning(delta, gbar)
    return DiodeConfig(
        QubitParams(omega_q=w1, gamma_r=gr1, gamma_nr=gamma_nr,
                    gamma_phi=gamma_phi),
        QubitParams(omega_q=w2, gamma_r=gr2, gamma_nr=gamma_nr,
                    gamma_phi=gamma_phi),
        delta)


powers_over_gbar = st.floats(1e-4, 10.0)
sides = st.sampled_from(["forward", "reverse"])
