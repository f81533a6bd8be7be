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
    SweepRow,
    dark_bright_rates,
    dark_state_population,
    diode_efficiency,
    dispersive_phase,
    operating_point,
    optimal_tuning,
    phase_from_frequency,
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
from .operators import SolverError, evolve, expectation, steady_state
from .single_qubit import (
    QubitParams,
    transmission_analytic,
    transmission_numeric,
)
from .spectrum import (
    LorentzianFit,
    SpectrumError,
    SpectrumResult,
    fit_lorentzian,
    predicted_linewidth,
    psd,
    two_time_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "DiodeConfig",
    "DiodeOperatingPoint",
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
    "SweepRow",
    "analytic_iq_variance",
    "dark_bright_rates",
    "dark_state_population",
    "diode_efficiency",
    "dispersive_phase",
    "evolve",
    "expectation",
    "fit_lorentzian",
    "fit_single_qubit",
    "iq_variance",
    "operating_point",
    "optimal_tuning",
    "phase_from_frequency",
    "power_sweep",
    "predicted_linewidth",
    "psd",
    "simulate_mirror",
    "steady_state",
    "transmission",
    "transmission_analytic",
    "transmission_numeric",
    "two_time_correlation",
    "variance_vs_power",
    "__version__",
]
