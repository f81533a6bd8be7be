"""File formats: result CSVs, spectrum sidecars, and the run manifest.

External files use Hz for every frequency-like quantity; conversion to and
from internal angular units happens in the writers and readers here. Floats
are serialized with repr(), the shortest round-trip form, so a rerun with
identical inputs produces byte-identical data files. The manifest is the one
file allowed to differ between reruns (it records wall time).
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
from typing import Iterable, Sequence

import numpy as np

from .diode import SweepRow
from .mirror import MirrorSweepRow
from .spectrum import SpectrumResult

TWO_PI = 2.0 * math.pi


def _fmt(x: float) -> str:
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return repr(float(x))


# -----------------------------------------------------------------------------
#                       Transmission scans (single qubit)
# -----------------------------------------------------------------------------

def write_transmission_csv(path: str, delta_omega: np.ndarray,
                           t_values: np.ndarray) -> None:
    """delta_omega in rad/s (written as Hz); complex t gives re/im columns."""
    complex_data = np.iscomplexobj(t_values)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if complex_data:
            writer.writerow(["delta_omega_hz", "t_real", "t_imag"])
            for d, t in zip(delta_omega, t_values):
                writer.writerow([_fmt(d / TWO_PI), _fmt(t.real), _fmt(t.imag)])
        else:
            writer.writerow(["delta_omega_hz", "t_abs"])
            for d, t in zip(delta_omega, t_values):
                writer.writerow([_fmt(d / TWO_PI), _fmt(t)])


def read_transmission_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of write_transmission_csv; returns (delta_omega rad/s, t)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty transmission file")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    if header == ["delta_omega_hz", "t_real", "t_imag"]:
        d = np.array([float(r[0]) for r in body]) * TWO_PI
        t = np.array([float(r[1]) + 1j * float(r[2]) for r in body])
    elif header == ["delta_omega_hz", "t_abs"]:
        d = np.array([float(r[0]) for r in body]) * TWO_PI
        t = np.array([float(r[1]) for r in body])
    else:
        raise ValueError(f"{path}: unrecognized transmission header {header}")
    return d, t


# -----------------------------------------------------------------------------
#                          Diode power sweeps
# -----------------------------------------------------------------------------

SWEEP_COLUMNS = ["p_over_gammabar", "t_fwd_abs", "t_fwd_arg", "t_rev_abs",
                 "t_rev_arg", "efficiency", "dark_pop_fwd", "dark_pop_rev"]


def write_sweep_csv(path: str, rows: Sequence[SweepRow],
                    gamma_bar: float) -> None:
    """Power sweep table; powers are stored relative to gamma_bar.

    Rows that failed to solve carry NaN in every result column; the error
    messages travel in the manifest, not the data file.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for r in rows:
            writer.writerow([
                _fmt(r.power / gamma_bar),
                _fmt(abs(r.t_forward)), _fmt(np.angle(r.t_forward)),
                _fmt(abs(r.t_reverse)), _fmt(np.angle(r.t_reverse)),
                _fmt(r.efficiency),
                _fmt(r.dark_population_forward),
                _fmt(r.dark_population_reverse),
            ])


# -----------------------------------------------------------------------------
#                              Spectra
# -----------------------------------------------------------------------------

def write_spectrum_csv(path: str, s: SpectrumResult,
                       sidecar_extra: dict | None = None) -> str:
    """PSD table plus a JSON sidecar with the scalar results.

    The CSV axis is the offset from the drive in Hz and the PSD is photons/s
    per Hz, so a trapezoid integral over the file reproduces the inelastic
    photon flux. Returns the sidecar path.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_offset_hz", "psd"])
        for w, p in zip(s.freq_offsets, s.inelastic_psd):
            writer.writerow([_fmt(w / TWO_PI), _fmt(p * TWO_PI)])
    sidecar = {
        "elastic_weight_photons_per_s": s.elastic_weight,
        "units": {"freq_offset_hz": "Hz from the drive",
                  "psd": "photons/s per Hz"},
    }
    if s.fitted is not None:
        sidecar["lorentzian_fit"] = {
            "center_hz": s.fitted.center / TWO_PI,
            "fwhm_hz": s.fitted.fwhm / TWO_PI,
            "area_photons_per_s": s.fitted.area * 1.0,
            "peak_height_photons_per_s_per_hz": s.fitted.peak_height * TWO_PI,
            "offset_photons_per_s_per_hz": s.fitted.offset * TWO_PI,
            "residual_norm": s.fitted.residual_norm,
        }
    if sidecar_extra:
        sidecar.update(sidecar_extra)
    sidecar_path = os.path.splitext(path)[0] + ".json"
    write_json(sidecar_path, sidecar)
    return sidecar_path


def read_spectrum_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Returns (freq offsets rad/s, psd photons/s per rad/s)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or [h.strip() for h in rows[0]] != ["freq_offset_hz", "psd"]:
        raise ValueError(f"{path}: not a spectrum file")
    w = np.array([float(r[0]) for r in rows[1:]]) * TWO_PI
    p = np.array([float(r[1]) for r in rows[1:]]) / TWO_PI
    return w, p


# -----------------------------------------------------------------------------
#                          Mirror Monte Carlo
# -----------------------------------------------------------------------------

MIRROR_COLUMNS = ["power", "var_i_fwd", "var_i_rev", "var_q_fwd", "var_q_rev",
                  "var_i_fwd_analytic", "var_i_rev_analytic"]


def write_mirror_csv(path: str, rows: Sequence[MirrorSweepRow],
                     seed: int) -> None:
    """Variance-vs-power table; the seed rides along as a comment line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed = {seed}\n")
        writer = csv.writer(fh)
        writer.writerow(MIRROR_COLUMNS)
        for r in rows:
            writer.writerow([_fmt(r.power),
                             _fmt(r.var_i_fwd), _fmt(r.var_i_rev),
                             _fmt(r.var_q_fwd), _fmt(r.var_q_rev),
                             _fmt(r.var_i_fwd_analytic),
                             _fmt(r.var_i_rev_analytic)])


def read_mirror_csv(path: str) -> tuple[int, list[dict]]:
    """Returns (seed, rows as column dicts)."""
    seed = -1
    with open(path, newline="", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = []
    for line in raw:
        if line.startswith("#"):
            if "seed" in line:
                seed = int(line.split("=")[1])
        elif line.strip():
            lines.append(line)
    rows = list(csv.reader(lines))
    if not rows or rows[0] != MIRROR_COLUMNS:
        raise ValueError(f"{path}: not a mirror sweep file")
    return seed, [dict(zip(MIRROR_COLUMNS, map(float, r))) for r in rows[1:]]


# -----------------------------------------------------------------------------
#                              Manifest
# -----------------------------------------------------------------------------

def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: str, mode: str, echo: dict, seed: int,
                   wall_time_s: float, outputs: Iterable[str],
                   notes: Sequence[str] = (),
                   diagnostics: dict | None = None) -> str:
    from . import __version__

    payload = {
        "mode": mode,
        "config": echo,
        "seed": seed,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "wall_time_s": wall_time_s,
        "versions": {
            "qdiode": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if notes:
        payload["notes"] = list(notes)
    if diagnostics:
        payload["diagnostics"] = dict(diagnostics)
    path = os.path.join(out_dir, "run_manifest.json")
    write_json(path, payload)
    return path
