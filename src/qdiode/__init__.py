"""Waveguide-QED quantum diode: simulation and analysis toolkit.

Two resonant emitters coupled to a waveguide a quarter wavelength apart (plus
a small detuning-compensated offset) scatter a coherent probe nonreciprocally:
forward drive pumps a long-lived quasi-dark superposition that lets light
through, reverse drive meets the fast-decaying bright state and is reflected.
This package computes the steady states, transmission amplitudes, diode
efficiency, emission spectra, and heterodyne noise statistics of that system,
and fits single-emitter scattering parameters from transmission scans.
"""

from .diode import (
    DiodeConfig,
    DiodeOperatingPoint,
    DrivenState,
    dark_bright_rates,
    dark_state_population,
    diode_efficiency,
    driven_state,
    operating_point,
    optimal_tuning,
    power_sweep,
    transmission,
)
from .fitting import FitError, FitReport, fit_single_qubit
from .mirror import (
    IQRecord,
    MirrorModel,
    MirrorSweepRow,
    analytic_iq_variance,
    iq_variance,
    simulate_mirror,
    variance_vs_power,
)
from .operators import (
    SolverError,
    SteadyStates,
    expectation,
    real_form,
    steady_state,
    steady_states,
)
from .single_qubit import (
    QubitParams,
    transmission_analytic,
    transmission_vs_detuning,
)
from .spectrum import (
    LorentzianFit,
    SpectrumError,
    SpectrumResult,
    fit_lorentzian,
    predicted_linewidth,
    psd,
)

__version__ = "0.1.0"

__all__ = [
    "DiodeConfig",
    "DiodeOperatingPoint",
    "DrivenState",
    "FitError",
    "FitReport",
    "IQRecord",
    "LorentzianFit",
    "MirrorModel",
    "MirrorSweepRow",
    "QubitParams",
    "SolverError",
    "SpectrumError",
    "SpectrumResult",
    "SteadyStates",
    "analytic_iq_variance",
    "dark_bright_rates",
    "dark_state_population",
    "diode_efficiency",
    "driven_state",
    "expectation",
    "fit_lorentzian",
    "fit_single_qubit",
    "iq_variance",
    "operating_point",
    "optimal_tuning",
    "power_sweep",
    "predicted_linewidth",
    "psd",
    "real_form",
    "simulate_mirror",
    "steady_state",
    "steady_states",
    "transmission",
    "transmission_analytic",
    "transmission_vs_detuning",
    "variance_vs_power",
    "__version__",
]
