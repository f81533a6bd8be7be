"""The row-by-row CSV writers, kept as test references.

These are the writers ``io``'s column path replaced: every cell formatted on
its own by ``_fmt``, with a scalar ``np.angle`` or ``abs`` call per complex.
The column writers must produce the same bytes.
"""

import csv
import math

import numpy as np

from qdiode.io import MIRROR_COLUMNS, SWEEP_COLUMNS

TWO_PI = 2.0 * math.pi


def _fmt(x: float) -> str:
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return repr(float(x))


def write_sweep_csv_rowwise(path, rows, gamma_bar) -> None:
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


def write_transmission_csv_rowwise(path, delta_omega, t_values) -> None:
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


def write_spectrum_table_rowwise(path, s) -> None:
    """The CSV table of ``io.write_spectrum_csv``, without its sidecar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_offset_hz", "psd"])
        for w, p in zip(s.freq_offsets, s.inelastic_psd):
            writer.writerow([_fmt(w / TWO_PI), _fmt(p * TWO_PI)])


def write_mirror_csv_rowwise(path, rows, seed) -> None:
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
