"""Waveguide-QED quantum diode: simulation and analysis toolkit.

Two resonant emitters coupled to a waveguide a quarter wavelength apart (plus
a small detuning-compensated offset) scatter a coherent probe nonreciprocally:
forward drive pumps a long-lived quasi-dark superposition that lets light
through, reverse drive meets the fast-decaying bright state and is reflected.
This package computes the steady states, transmission amplitudes, diode
efficiency, emission spectra, and heterodyne noise statistics of that system,
and fits single-emitter scattering parameters from transmission scans.

``import qdiode`` loads no submodule and no numpy: each public name below is
imported from its submodule on first use and then cached (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_ORIGIN = {
    "DiodeConfig": "diode",
    "DiodeOperatingPoint": "diode",
    "DrivenState": "diode",
    "FitError": "fitting",
    "FitReport": "fitting",
    "IQRecord": "mirror",
    "LorentzianFit": "spectrum",
    "MirrorModel": "mirror",
    "MirrorSweepRow": "mirror",
    "QubitParams": "single_qubit",
    "SolverError": "operators",
    "SpectrumError": "spectrum",
    "SpectrumResult": "spectrum",
    "SteadyStates": "operators",
    "analytic_iq_variance": "mirror",
    "dark_bright_rates": "diode",
    "dark_state_population": "diode",
    "diode_efficiency": "diode",
    "driven_state": "diode",
    "expectation": "operators",
    "fit_lorentzian": "spectrum",
    "fit_single_qubit": "fitting",
    "iq_variance": "mirror",
    "operating_point": "diode",
    "optimal_tuning": "diode",
    "power_sweep": "diode",
    "predicted_linewidth": "spectrum",
    "psd": "spectrum",
    "real_form": "operators",
    "simulate_mirror": "mirror",
    "steady_state": "operators",
    "steady_states": "operators",
    "transmission_analytic": "single_qubit",
    "variance_vs_power": "mirror",
}
_SUBMODULES = frozenset(_ORIGIN.values())

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
