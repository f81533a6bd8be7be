"""The row-by-row sweep writer, kept as a test reference.

This is the writer ``io.write_sweep_csv`` replaced: every cell formatted on
its own, with a scalar ``np.angle`` or ``abs`` call per complex. The columnar
writer must produce the same bytes.
"""

import csv

import numpy as np

from qdiode.io import SWEEP_COLUMNS


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
