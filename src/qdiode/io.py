"""File formats: result CSVs, spectrum sidecars, and the run manifest.

External files use Hz for every frequency-like quantity; conversion to and
from internal angular units happens in the writers and the reader here. Every
CSV writer hands whole columns to one helper, ``_write_columns``: a column is
scaled once as an array (``/ TWO_PI``, ``* TWO_PI``), turned into Python
floats with ``tolist()`` and written as repr(), the shortest round-trip
form, so a rerun with identical inputs produces byte-identical data files.
The rows are joined by hand, with commas and the csv module's default
``\r\n`` row terminator, and the file is written in one call: a repr() of a
float and a header name never need quoting, so the bytes are the ones
``csv.writer`` gave. ``write_json`` likewise writes one ``json.dumps``.
The one reader, ``read_transmission_csv`` (the ``fit`` input), parses its
table with ``_read_table``: every cell with float(), naming the file and line
of a cell or row it cannot read. The manifest is the one file allowed to differ
between reruns (it records wall time).
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import __version__

if TYPE_CHECKING:   # annotations only: io imports no physics module
    from .diode import DiodeOperatingPoint
    from .mirror import MirrorSweepRow
    from .spectrum import SpectrumResult

TWO_PI = 2.0 * math.pi


def _write_columns(path: str, header: Sequence[str], columns,
                   preamble: str = "") -> None:
    """Write a CSV table to path: the preamble, the header row, then the
    float columns side by side, each converted once to Python floats and
    written as repr, every row ended by the csv dialect's ``\r\n``. Columns
    of unequal length are a ValueError raised before the path is opened, so
    an existing file is left alone."""
    cells = [np.asarray(col, dtype=float).tolist() for col in columns]
    lengths = [len(c) for c in cells]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns {list(header)} have unequal lengths "
                         f"{lengths}")
    rows = map(",".join, zip(*(map(repr, c) for c in cells)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble + "\r\n".join([",".join(header), *rows, ""]))


def _read_table(path: str) -> tuple[list[str], np.ndarray, list[str]]:
    """The header of a result CSV (empty for an empty file), its body as a
    float array of one row per line, and its '#' comment lines; blank lines
    and a UTF-8 BOM are skipped. A row whose cell count is not the header's,
    or a cell that is not a number, is a ValueError naming file and line."""
    header: list[str] = []
    body, comments = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for r in reader:
            if not r or (len(r) == 1 and not r[0].strip()):
                continue
            if r[0].startswith("#"):
                comments.append(",".join(r))
            elif not header:
                header = r
            elif len(r) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"{len(header)} cells, got {len(r)}")
            else:
                try:
                    body.append([float(x) for x in r])
                except ValueError as exc:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: {exc}") from None
    return header, np.array(body).reshape(len(body), len(header)), comments


# -----------------------------------------------------------------------------
#                       Transmission scans (single qubit)
# -----------------------------------------------------------------------------

def write_transmission_csv(path: str, delta_omega: np.ndarray,
                           t_values: np.ndarray) -> None:
    """delta_omega in rad/s (written as Hz); complex t gives re/im columns."""
    hz = np.asarray(delta_omega, dtype=float) / TWO_PI
    if np.iscomplexobj(t_values):
        t = np.asarray(t_values, dtype=complex)
        _write_columns(path, ["delta_omega_hz", "t_real", "t_imag"],
                       [hz, t.real, t.imag])
    else:
        _write_columns(path, ["delta_omega_hz", "t_abs"], [hz, t_values])


def read_transmission_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of write_transmission_csv; returns (delta_omega rad/s, t)."""
    header, body, _ = _read_table(path)
    if not header:
        raise ValueError(f"{path}: empty transmission file")
    header = [h.strip() for h in header]
    if header == ["delta_omega_hz", "t_real", "t_imag"]:
        t = body[:, 1:].copy().view(complex)[:, 0]   # (re, im) pairs
    elif header == ["delta_omega_hz", "t_abs"]:
        t = body[:, 1]
    else:
        raise ValueError(f"{path}: unrecognized transmission header {header}")
    return body[:, 0] * TWO_PI, t


# -----------------------------------------------------------------------------
#                          Diode power sweeps
# -----------------------------------------------------------------------------

SWEEP_COLUMNS = ["p_over_gammabar", "t_fwd_abs", "t_fwd_arg", "t_rev_abs",
                 "t_rev_arg", "efficiency", "dark_pop_fwd", "dark_pop_rev"]


def write_sweep_csv(path: str, rows: Sequence[DiodeOperatingPoint],
                    gamma_bar: float) -> None:
    """Power sweep table of ``power_sweep``'s rows; powers are stored
    relative to gamma_bar.

    Rows that failed to solve carry NaN in every result column; the error
    messages travel in the manifest, not the data file. Each column is
    computed once over all rows; the magnitudes use Python's abs on the
    complexes, whose last digit np.abs does not always reproduce.
    """
    t_fwd = np.array([r.t_forward for r in rows], dtype=complex)
    t_rev = np.array([r.t_reverse for r in rows], dtype=complex)
    columns = [
        np.array([r.power for r in rows], dtype=float) / gamma_bar,
        [abs(t) for t in t_fwd.tolist()], np.angle(t_fwd),
        [abs(t) for t in t_rev.tolist()], np.angle(t_rev),
        [r.efficiency for r in rows],
        [r.dark_population_forward for r in rows],
        [r.dark_population_reverse for r in rows],
    ]
    _write_columns(path, SWEEP_COLUMNS, columns)


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
    _write_columns(path, ["freq_offset_hz", "psd"],
                   [s.freq_offsets / TWO_PI, s.inelastic_psd * TWO_PI])
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


# -----------------------------------------------------------------------------
#                          Mirror Monte Carlo
# -----------------------------------------------------------------------------

MIRROR_COLUMNS = ["power", "var_i_fwd", "var_i_rev", "var_q_fwd", "var_q_rev",
                  "var_i_fwd_analytic", "var_i_rev_analytic"]


def write_mirror_csv(path: str, rows: Sequence[MirrorSweepRow],
                     seed: int) -> None:
    """Variance-vs-power table; the seed rides along as a comment line."""
    columns = [[getattr(r, name) for r in rows] for name in MIRROR_COLUMNS]
    _write_columns(path, MIRROR_COLUMNS, columns,
                   preamble=f"# seed = {seed}\n")


# -----------------------------------------------------------------------------
#                              Manifest
# -----------------------------------------------------------------------------

def write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_manifest(out_dir: str, mode: str, echo: dict, seed: int,
                   wall_time_s: float, outputs: Iterable[str],
                   notes: Sequence[str] = (),
                   diagnostics: dict | None = None) -> str:
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
