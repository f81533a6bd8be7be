"""Run configuration: flat JSON schemas, validation, and unit conversion.

Config files are flat JSON objects. All frequencies and rates are given in
Hz (cycles, the value an instrument displays); they are converted to angular
units (rad/s) here, exactly once, so everything downstream is rad/s. Drive
strengths are dimensionless ratios (photon flux over a decay rate), which
sidesteps the 2 pi question entirely.

Unknown keys are rejected by name rather than ignored: a silently dropped
typo in a rate key is a wrong physics run that looks healthy.
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple

TWO_PI = 2.0 * math.pi

MODES = ("steady-state", "sweep-power", "sweep-frequency", "spectrum", "fit",
         "mirror-mc")


class ConfigError(ValueError):
    """Invalid run configuration."""


class Field(NamedTuple):
    """One schema entry: JSON type, requiredness, default, and range check."""

    kind: type
    required: bool = False
    default: Any = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    choices: tuple | None = None


def _num(required=False, default=None, minimum=None, maximum=None,
         exclusive_min=False) -> Field:
    return Field(float, required, default, minimum, maximum, exclusive_min)


def _int(required=False, default=None, minimum=None) -> Field:
    return Field(int, required, default, minimum)


_TWO_QUBIT_RATES = {
    "gamma_r1_hz": _num(required=True, minimum=0.0, exclusive_min=True),
    "gamma_r2_hz": _num(required=True, minimum=0.0, exclusive_min=True),
    "gamma_nr_hz": _num(default=0.0, minimum=0.0),
    "gamma_phi_hz": _num(default=0.0, minimum=0.0),
    "delta": _num(required=True),
    "detuning1_hz": _num(),      # default: optimal tuning, -delta * gamma_bar
    "detuning2_hz": _num(),      # default: optimal tuning, 0
}

SCHEMAS: dict[str, dict[str, Field]] = {
    "steady-state": {
        **_TWO_QUBIT_RATES,
        "p_over_gammabar": _num(default=0.0, minimum=0.0),
        "alpha": _num(default=0.0),
        "beta": _num(default=0.0),
    },
    "sweep-power": {
        **_TWO_QUBIT_RATES,
        "power_min_over_gammabar": _num(required=True, minimum=0.0,
                                        exclusive_min=True),
        "power_max_over_gammabar": _num(required=True, minimum=0.0,
                                        exclusive_min=True),
        "n_powers": _int(required=True, minimum=2),
        # The driven side: forward from the left, reverse from the right.
        "side": Field(str, default="both",
                      choices=("forward", "reverse", "both")),
    },
    "sweep-frequency": {
        "gamma_r_hz": _num(required=True, minimum=0.0, exclusive_min=True),
        "gamma_nr_hz": _num(default=0.0, minimum=0.0),
        "gamma_phi_hz": _num(default=0.0, minimum=0.0),
        "power_over_gamma_r": _num(required=True, minimum=0.0,
                                   exclusive_min=True),
        "span_linewidths": _num(default=4.0, minimum=0.0, exclusive_min=True),
        "n_points": _int(default=201, minimum=2),
    },
    "spectrum": {
        **_TWO_QUBIT_RATES,
        "p_over_gammabar": _num(required=True, minimum=0.0, exclusive_min=True),
        "direction": Field(str, required=True, choices=("forward", "reverse")),
        "port": Field(str, required=True, choices=("transmitted", "reflected")),
        "span_linewidths": _num(default=16.0, minimum=6.0),
        "n_freq": _int(default=401, minimum=9),
        "gamma_exc_hz": _num(default=0.0, minimum=0.0),
        "fit": Field(bool, default=True),
    },
    "fit": {
        "input_csv": Field(str, required=True),
        "initial_gamma_r_hz": _num(required=True, minimum=0.0,
                                   exclusive_min=True),
        "initial_s_hz": _num(default=0.0, minimum=0.0),
        "power_over_gamma_r": _num(default=0.0, minimum=0.0),
        "magnitude_only": Field(bool, default=False),
    },
    "mirror-mc": {
        "p_dark_fwd": _num(minimum=0.0, maximum=1.0),
        "p_dark_rev": _num(minimum=0.0, maximum=1.0),
        "gamma_r1_hz": _num(minimum=0.0, exclusive_min=True),
        "gamma_r2_hz": _num(minimum=0.0, exclusive_min=True),
        "gamma_nr_hz": _num(minimum=0.0),
        "gamma_phi_hz": _num(minimum=0.0),
        "delta": _num(),
        "p_over_gammabar": _num(minimum=0.0, exclusive_min=True),
        "sigma_w": _num(required=True, minimum=0.0),
        "n_samples": _int(default=2 ** 18, minimum=2),
        "power_min": _num(required=True, minimum=0.0),
        "power_max": _num(required=True, minimum=0.0),
        "n_powers": _int(required=True, minimum=1),
        "dwell_samples": _num(default=0.0, minimum=0.0),
    },
}


class RunConfig(NamedTuple):
    """A validated run: mode, external-unit echo, and internal parameters."""

    mode: str
    echo: dict          # defaults filled in, external units (manifest payload)
    params: dict        # internal units (rad/s for everything angular)
    seed: int


def _check_field(mode: str, key: str, f: Field, value: Any) -> Any:
    if f.kind in (float, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{mode}: key {key!r} must be a number, "
                              f"got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{mode}: key {key!r} is beyond the float "
                              "range") from None
        if f.kind is int and not number.is_integer():
            raise ConfigError(f"{mode}: key {key!r} must be an integer, "
                              f"got {value!r}")
        value = f.kind(value)
        if not math.isfinite(number):
            raise ConfigError(f"{mode}: key {key!r} must be finite")
        if f.minimum is not None:
            if f.exclusive_min and value <= f.minimum:
                raise ConfigError(f"{mode}: key {key!r} must be > {f.minimum}, "
                                  f"got {value}")
            if not f.exclusive_min and value < f.minimum:
                raise ConfigError(f"{mode}: key {key!r} must be >= {f.minimum}, "
                                  f"got {value}")
        if f.maximum is not None and value > f.maximum:
            raise ConfigError(f"{mode}: key {key!r} must be <= {f.maximum}, "
                              f"got {value}")
    elif f.kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{mode}: key {key!r} must be a string")
        if f.choices is not None and value not in f.choices:
            raise ConfigError(f"{mode}: key {key!r} must be one of "
                              f"{f.choices}, got {value!r}")
    elif f.kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{mode}: key {key!r} must be true or false")
    return value


def _mode_checks(mode: str, echo: dict) -> None:
    """Cross-key constraints that a per-field schema cannot express."""
    if mode == "steady-state":
        if echo["p_over_gammabar"] != 0.0 and (echo["alpha"] != 0.0
                                               or echo["beta"] != 0.0):
            raise ConfigError("steady-state: a nonzero alpha or beta sets the "
                              "drive, so p_over_gammabar must be 0; give "
                              "p_over_gammabar or alpha/beta, not both")
    if mode == "sweep-power":
        if echo["power_max_over_gammabar"] <= echo["power_min_over_gammabar"]:
            raise ConfigError("sweep-power: power_max_over_gammabar must "
                              "exceed power_min_over_gammabar")
    if mode == "mirror-mc":
        explicit = "p_dark_fwd" in echo or "p_dark_rev" in echo
        diode_keys = ("gamma_r1_hz", "gamma_r2_hz", "delta", "p_over_gammabar")
        # The loss rates are device keys that none requires; only a derived
        # p_dark reads them, so beside an explicit one they would be dropped.
        loss_keys = ("gamma_nr_hz", "gamma_phi_hz")
        derived = any(k in echo for k in diode_keys + loss_keys)
        if explicit and derived:
            raise ConfigError("mirror-mc: give either explicit p_dark_fwd/"
                              "p_dark_rev or diode parameters, not both")
        if explicit:
            missing = [k for k in ("p_dark_fwd", "p_dark_rev") if k not in echo]
            if missing:
                raise ConfigError(f"mirror-mc: missing key {missing[0]!r}")
        else:
            missing = [k for k in diode_keys if k not in echo]
            if missing:
                raise ConfigError(
                    f"mirror-mc: missing key {missing[0]!r} (diode parameters "
                    "are required when p_dark values are not given)")
        if echo["power_max"] < echo["power_min"]:
            raise ConfigError("mirror-mc: power_max must be >= power_min")
        if echo["n_powers"] == 1 and echo["power_max"] != echo["power_min"]:
            raise ConfigError("mirror-mc: with n_powers = 1 the sweep is "
                              "power_min alone, so power_max must equal "
                              "power_min")
    if mode == "spectrum":
        if echo["n_freq"] % 2 == 0:
            raise ConfigError("spectrum: n_freq must be odd so the grid is "
                              "symmetric around zero offset")


def validate(mode: str, raw: dict) -> RunConfig:
    """Validate a raw JSON object against the schema for ``mode``."""
    if mode not in SCHEMAS:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    schema = SCHEMAS[mode]

    for key in raw:
        if key in ("mode", "seed"):
            continue
        if key not in schema:
            raise ConfigError(f"{mode}: unknown key {key!r}")

    declared = raw.get("mode")
    if declared is not None and declared != mode:
        raise ConfigError(f"config declares mode {declared!r} but was run "
                          f"as {mode!r}")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    echo: dict = {}
    for key, f in schema.items():
        if key in raw:
            echo[key] = _check_field(mode, key, f, raw[key])
        elif f.required:
            raise ConfigError(f"{mode}: missing required key {key!r}")
        elif f.default is not None:
            echo[key] = f.default
    _mode_checks(mode, echo)

    # Keys ending in _hz hold plain-Hz values that become rad/s internally.
    params = {k: (v * TWO_PI if k.endswith("_hz") else v)
              for k, v in echo.items()}
    return RunConfig(mode=mode, echo=dict(echo), params=params, seed=int(seed))


def load(mode: str, path: str) -> RunConfig:
    """Read and validate a JSON config file for the given mode."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return validate(mode, raw)
