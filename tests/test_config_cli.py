"""Config validation, unit discipline, file formats, and end-to-end runs.

The CLI tests run the real entry point in process and assert on the files it
leaves behind; one smoke test goes through the installed console script. The
physics numbers asserted here are pinned by the solver test modules, so a
disagreement points at the plumbing rather than the model.
"""

import ast
import filecmp
import glob
import importlib.util
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from device_strategies import PROPERTY
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sweep_null_gaps
from sweep_csv_reference import (write_mirror_csv_rowwise,
                                 write_spectrum_table_rowwise,
                                 write_sweep_csv_rowwise,
                                 write_transmission_csv_rowwise)

import qdiode
from qdiode import io
from qdiode.cli import (EXIT_CONFIG, EXIT_FIT, EXIT_OK, EXIT_SOLVER,
                        _diode_config, run)
from qdiode.config import MODES, TWO_PI, ConfigError, load, validate
from qdiode.diode import (DiodeOperatingPoint, _drive, _drive_sweep,
                          _gap_diagnostics, power_sweep)
from qdiode.mirror import MirrorSweepRow
from qdiode.single_qubit import QubitParams, transmission_analytic
from qdiode.spectrum import LorentzianFit, SpectrumResult

DELTA = float(np.sqrt(1e-3))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_spectrum_csv(path):
    """Inverse of io.write_spectrum_csv's table, through the shipped
    parser: (freq offsets rad/s, psd photons/s per rad/s)."""
    header, body, _ = io._read_table(path)
    if [h.strip() for h in header] != ["freq_offset_hz", "psd"]:
        raise ValueError(f"{path}: not a spectrum file")
    return body[:, 0] * TWO_PI, body[:, 1] / TWO_PI


def read_mirror_csv(path):
    """Inverse of io.write_mirror_csv, through the shipped parser: (seed,
    rows as column dicts)."""
    header, body, comments = io._read_table(path)
    if header != io.MIRROR_COLUMNS:
        raise ValueError(f"{path}: not a mirror sweep file")
    seed = -1
    for line in comments:
        if "seed" in line:
            seed = int(line.split("=")[1])
    return seed, [dict(zip(io.MIRROR_COLUMNS, r)) for r in body.tolist()]


def _benchmark_jobs_module():
    spec = importlib.util.spec_from_file_location(
        "benchmark_jobs", os.path.join(REPO, "perfbench", "jobs.py"))
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs     # its dataclass looks the module up
    spec.loader.exec_module(jobs)
    return jobs


def benchmark_argvs(workload, seed, workdir):
    """The qdiode arguments of each job of one workload of the repository's
    benchmark, with its configs written."""
    jobs = _benchmark_jobs_module()
    made = jobs.make_jobs(workload, seed, workdir)
    jobs.write_configs(workdir, made)
    return [jobs.argv(workdir, j, seed) for j in made]


def benchmark_jobs(workload, seed, workdir):
    """The jobs of one workload of the repository's benchmark."""
    jobs = _benchmark_jobs_module()
    made = jobs.make_jobs(workload, seed, workdir)
    jobs.write_configs(workdir, made)
    return [(os.path.join(jobs.job_dir(workdir, j), "config.json"),
             jobs.out_dir(workdir, j)) for j in made]


def cold_run_modules(tmp_path, names):
    """Exit codes of all six modes run one after another by cli.run in one
    fresh interpreter, and the modules named in ``names``, or in a package
    named there, loaded after the last run."""
    dev = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 66e6, "gamma_nr_hz": 2e5,
           "gamma_phi_hz": 2e5, "delta": DELTA}
    point = {**dev, "p_over_gammabar": 0.05}
    scan = str(tmp_path / "freq" / "frequency_sweep.csv")
    jobs = [
        ("steady-state", point),
        ("sweep-power", {**dev, "power_min_over_gammabar": 0.01,
                         "power_max_over_gammabar": 1.0, "n_powers": 3}),
        ("sweep-frequency", {"gamma_r_hz": 72.4299e6,
                             "gamma_phi_hz": 211.4e3,
                             "power_over_gamma_r": 1e-4,
                             "n_points": 41}),
        ("fit", {"input_csv": scan, "initial_gamma_r_hz": 80e6,
                 "power_over_gamma_r": 1e-4}),
        ("spectrum", {**point, "direction": "forward",
                      "port": "transmitted", "n_freq": 65}),
        ("mirror-mc", {**point, "sigma_w": 0.05, "n_samples": 4096,
                       "power_min": 0.0, "power_max": 1.0,
                       "n_powers": 3}),
    ]
    argvs = []
    for mode, payload in jobs:
        name = "freq" if mode == "sweep-frequency" else mode
        cfg = write_config(tmp_path, payload, name=f"{name}.json")
        argvs.append([mode, "--config", cfg,
                      "--out", str(tmp_path / name)])
    src = os.path.dirname(os.path.dirname(qdiode.__file__))
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "names = set(json.loads(sys.argv[3])); "
            "import qdiode.cli; "
            "codes = [qdiode.cli.run(a) for a in json.loads(sys.argv[2])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m in names or m.split('.')[0] in names)]))")
    proc = subprocess.run([sys.executable, "-c", code, src,
                           json.dumps(argvs), json.dumps(sorted(names))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.split("\n")[-2])
    return codes, loaded


def steady_payload(**overrides):
    base = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "p_over_gammabar": 0.05}
    base.update(overrides)
    return base


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def log_floats(lo, hi):
    """Floats from lo to hi, drawn evenly over their decades."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def fit_runs(draw):
    """A fit config without its input file, and the (delta_omega, t) trace
    it fits: a line of gamma_r from 1 to 100 MHz and gamma_phi/gamma_r from
    1e-4 to 1, driven at p from 1e-5 to 10 gamma_r, on 6 to 120 points over
    0.1 to 30 gamma_2, with noise from 1e-6 to 0.3, in magnitude or complex,
    and a start 0.1 to 10 times gamma_r."""
    gamma_r = TWO_PI * draw(log_floats(1e6, 100e6))
    q = QubitParams(omega_q=0.0, gamma_r=gamma_r,
                    gamma_phi=draw(log_floats(1e-4, 1.0)) * gamma_r)
    p = draw(log_floats(1e-5, 10.0))
    n = draw(st.integers(6, 120))
    delta = np.linspace(-1.0, 1.0, n) * draw(log_floats(0.1, 30.0)) * q.gamma_2
    t = transmission_analytic(q, delta, np.sqrt(p * gamma_r))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    noise = draw(log_floats(1e-6, 0.3))
    if draw(st.booleans()):
        t = t + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        t = np.abs(t) + noise * rng.standard_normal(n)
    config = {"initial_gamma_r_hz":
                  draw(log_floats(0.1, 10.0)) * gamma_r / TWO_PI,
              "power_over_gamma_r": p,
              "magnitude_only": draw(st.booleans())}
    return config, delta, t


# ----------------------------------------------------------------------------
#                          Schema validation
# ----------------------------------------------------------------------------

class TestValidation:
    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="gamma_typo_hz"):
            validate("steady-state", steady_payload(gamma_typo_hz=1.0))

    def test_missing_required_key_named(self):
        raw = steady_payload()
        del raw["gamma_r1_hz"]
        with pytest.raises(ConfigError, match="gamma_r1_hz"):
            validate("steady-state", raw)

    def test_string_for_number_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            validate("steady-state", steady_payload(gamma_r1_hz="70e6"))

    def test_bool_for_number_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            validate("steady-state", steady_payload(gamma_r1_hz=True))

    def test_fractional_integer_rejected(self):
        raw = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
               "power_min_over_gammabar": 0.01,
               "power_max_over_gammabar": 1.0, "n_powers": 2.5}
        with pytest.raises(ConfigError, match="integer"):
            validate("sweep-power", raw)

    def test_integral_float_accepted_for_int(self):
        raw = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
               "power_min_over_gammabar": 0.01,
               "power_max_over_gammabar": 1.0, "n_powers": 3.0}
        cfg = validate("sweep-power", raw)
        assert cfg.params["n_powers"] == 3

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigError, match="must be >"):
            validate("steady-state", steady_payload(gamma_r1_hz=0.0))

    def test_negative_optional_rate_rejected(self):
        with pytest.raises(ConfigError, match="gamma_nr_hz"):
            validate("steady-state", steady_payload(gamma_nr_hz=-1.0))

    def test_bad_choice_rejected(self):
        raw = steady_payload(direction="up", port="transmitted")
        with pytest.raises(ConfigError, match="one of"):
            validate("spectrum", raw)

    def test_even_frequency_count_rejected(self):
        raw = steady_payload(direction="forward", port="transmitted",
                             n_freq=400)
        with pytest.raises(ConfigError, match="odd"):
            validate("spectrum", raw)

    def test_sweep_frequency_side_is_an_unknown_key(self, tmp_path):
        # One emitter is reciprocal, so sweep-frequency drives it from the
        # left only; sweep-power drives the diode from both sides, as its
        # efficiency compares them. Neither takes a side.
        for mode, payload in (
                ("sweep-frequency", {"gamma_r_hz": 70e6,
                                     "power_over_gamma_r": 0.1}),
                ("sweep-power", {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6,
                                 "delta": DELTA,
                                 "power_min_over_gammabar": 0.01,
                                 "power_max_over_gammabar": 1.0,
                                 "n_powers": 3})):
            for side in ("forward", "reverse", "both"):
                raw = {**payload, "side": side}
                with pytest.raises(ConfigError, match="unknown key 'side'"):
                    validate(mode, raw)
            assert run([mode, "--config", write_config(tmp_path, raw),
                        "--out", str(tmp_path / mode)]) == EXIT_CONFIG

    def test_power_ordering_enforced(self):
        raw = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
               "power_min_over_gammabar": 1.0,
               "power_max_over_gammabar": 1.0, "n_powers": 3}
        with pytest.raises(ConfigError, match="exceed"):
            validate("sweep-power", raw)

    def test_declared_mode_must_match(self):
        with pytest.raises(ConfigError, match="declares mode"):
            validate("steady-state", steady_payload(mode="fit"))

    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            validate("steady-state", steady_payload(seed=seed))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            validate("make-coffee", {})

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate("steady-state", [1, 2, 3])

    def test_defaults_filled_in(self):
        cfg = validate("steady-state", steady_payload())
        assert cfg.echo["gamma_nr_hz"] == 0.0
        assert cfg.echo["beta"] == 0.0
        spec = validate("spectrum", steady_payload(direction="forward",
                                                   port="transmitted"))
        assert spec.echo["span_linewidths"] == 16.0
        assert spec.echo["n_freq"] == 401
        assert spec.echo["fit"] is True
        power = validate("sweep-power", {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 1.0,
            "n_powers": 3})
        assert "side" not in power.echo
        freq = validate("sweep-frequency", {"gamma_r_hz": 70e6,
                                            "power_over_gamma_r": 0.1})
        assert "side" not in freq.echo
        fit = validate("fit", {"input_csv": "scan.csv",
                               "initial_gamma_r_hz": 70e6})
        assert fit.echo["magnitude_only"] is False
        assert fit.echo["initial_s_hz"] == 0.0

    def test_optional_keys_stay_absent(self):
        cfg = validate("steady-state", steady_payload())
        assert "detuning1_hz" not in cfg.echo
        assert "detuning1_hz" not in cfg.params


class TestUnits:
    def test_hz_keys_become_angular(self):
        cfg = validate("steady-state", steady_payload(gamma_r1_hz=71.3039e6))
        assert cfg.params["gamma_r1_hz"] == 71.3039e6 * TWO_PI
        assert cfg.echo["gamma_r1_hz"] == 71.3039e6

    def test_dimensionless_keys_untouched(self):
        cfg = validate("steady-state", steady_payload())
        assert cfg.params["delta"] == DELTA
        assert cfg.params["p_over_gammabar"] == 0.05

    def test_fit_config_echoes_external_units(self, tmp_path):
        path = write_config(tmp_path, {"input_csv": "scan.csv",
                                       "initial_gamma_r_hz": 62.4261e6})
        cfg = load("fit", path)
        assert cfg.echo["initial_gamma_r_hz"] == 62.4261e6
        assert cfg.params["initial_gamma_r_hz"] == 62.4261e6 * TWO_PI


class TestMirrorConfig:
    BASE = {"sigma_w": 0.05, "power_min": 0.5, "power_max": 2.0, "n_powers": 3}

    @pytest.mark.parametrize("device", [
        dict(gamma_r1_hz=70e6, gamma_r2_hz=70e6, delta=DELTA,
             p_over_gammabar=0.05),
        # Only a derived p_dark reads the loss rates.
        dict(gamma_nr_hz=2e5), dict(gamma_phi_hz=2e5),
        dict(gamma_nr_hz=2e5, gamma_phi_hz=2e5),
    ], ids=["device", "gamma_nr", "gamma_phi", "both_losses"])
    def test_explicit_and_derived_exclusive(self, device):
        raw = dict(self.BASE, p_dark_fwd=0.6, p_dark_rev=0.05, **device)
        with pytest.raises(ConfigError, match="not both"):
            validate("mirror-mc", raw)

    def test_partial_explicit_rejected(self):
        raw = dict(self.BASE, p_dark_fwd=0.6)
        with pytest.raises(ConfigError, match="p_dark_rev"):
            validate("mirror-mc", raw)

    def test_partial_diode_rejected(self):
        raw = dict(self.BASE, gamma_r1_hz=70e6, gamma_r2_hz=70e6, delta=DELTA)
        with pytest.raises(ConfigError, match="diode parameters"):
            validate("mirror-mc", raw)

    def test_power_ordering(self):
        raw = dict(self.BASE, p_dark_fwd=0.6, p_dark_rev=0.05,
                   power_min=3.0)
        with pytest.raises(ConfigError, match="power_max"):
            validate("mirror-mc", raw)

    def test_one_power_needs_power_max_equal_to_power_min(self, tmp_path,
                                                          capsys):
        # One power is power_min alone: a different power_max would be
        # dropped without a word.
        raw = dict(self.BASE, p_dark_fwd=0.6, p_dark_rev=0.05, n_powers=1)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert run(["mirror-mc", "--config", cfg,
                    "--out", str(out)]) == EXIT_CONFIG
        assert "power_max" in capsys.readouterr().err
        assert not (out / "mirror_sweep.csv").exists()
        assert not (out / "run_manifest.json").exists()
        single = validate("mirror-mc", dict(raw, power_max=raw["power_min"]))
        assert single.params["n_powers"] == 1


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load("steady-state", str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load("steady-state", str(path))

    def test_valid_file_round_trip(self, tmp_path):
        path = write_config(tmp_path, steady_payload(seed=7))
        cfg = load("steady-state", path)
        assert cfg.mode == "steady-state"
        assert cfg.seed == 7


# ----------------------------------------------------------------------------
#                          Data file round trips
# ----------------------------------------------------------------------------

class TestFileRoundTrips:
    def test_complex_transmission(self, tmp_path):
        path = str(tmp_path / "scan.csv")
        d = np.linspace(-1e9, 1e9, 7)
        t = np.exp(1j * np.linspace(0, 1, 7)) * np.linspace(0.1, 1.0, 7)
        io.write_transmission_csv(path, d, t)
        d2, t2 = io.read_transmission_csv(path)
        np.testing.assert_array_equal(d2, d)
        np.testing.assert_array_equal(t2, t)

    def test_complex_transmission_cells_read_back_exactly(self, tmp_path):
        # Each (re, im) pair comes back as written: an infinite imaginary
        # part leaves the real part alone, and a negative zero stays.
        path = str(tmp_path / "scan.csv")
        t = np.array([complex(0.5, np.inf), complex(-0.0, 1.0),
                      complex(np.nan, -0.0), complex(-np.inf, 2.0)])
        io.write_transmission_csv(path, np.arange(4.0), t)
        _, t2 = io.read_transmission_csv(path)
        assert t2.tobytes() == t.tobytes()

    def test_magnitude_transmission(self, tmp_path):
        path = str(tmp_path / "scan.csv")
        d = np.linspace(-1e9, 1e9, 5)
        t = np.linspace(0.1, 1.0, 5)
        io.write_transmission_csv(path, d, t)
        d2, t2 = io.read_transmission_csv(path)
        assert not np.iscomplexobj(t2)
        np.testing.assert_array_equal(t2, t)

    @pytest.mark.parametrize("t", [np.linspace(0.1, 1.0, 5),
                                   np.exp(1j * np.linspace(0, 1, 5))])
    def test_byte_order_mark_skipped(self, tmp_path, t):
        # Spreadsheets and instruments often start a CSV with a UTF-8 BOM.
        path = tmp_path / "scan.csv"
        d = np.linspace(-1e9, 1e9, 5)
        io.write_transmission_csv(str(path), d, t)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        d2, t2 = io.read_transmission_csv(str(path))
        np.testing.assert_array_equal(d2, d)
        np.testing.assert_array_equal(t2, t)

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            io.read_transmission_csv(str(path))

    def test_sweep_header_and_nan_rows(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        nan = float("nan")
        rows = [DiodeOperatingPoint(
                    power=1.0, t_forward=0.5 + 0.1j, t_reverse=0.02 + 0j,
                    efficiency=0.4, dark_population_forward=0.6,
                    dark_population_reverse=0.01),
                DiodeOperatingPoint(
                    power=2.0, t_forward=complex(nan, nan),
                    t_reverse=complex(nan, nan), efficiency=nan,
                    dark_population_forward=nan,
                    dark_population_reverse=nan, error="degenerate")]
        io.write_sweep_csv(path, rows, gamma_bar=1.0)
        table = np.genfromtxt(path, delimiter=",", names=True)
        assert list(table.dtype.names) == io.SWEEP_COLUMNS
        np.testing.assert_allclose(table["t_fwd_abs"][0], abs(0.5 + 0.1j))
        assert np.isnan(table["efficiency"][1])

    def test_spectrum_with_sidecar(self, tmp_path):
        path = str(tmp_path / "spectrum.csv")
        w = np.linspace(-5.0, 5.0, 11)
        s = SpectrumResult(elastic_weight=0.3, freq_offsets=w,
                           inelastic_psd=np.exp(-w ** 2))._replace(
            fitted=LorentzianFit(center=0.1, fwhm=2.0, area=1.5,
                                 peak_height=0.9, offset=0.0,
                                 residual_norm=1e-3))
        sidecar = io.write_spectrum_csv(path, s)
        w2, p2 = read_spectrum_csv(path)
        np.testing.assert_array_equal(w2, w)
        np.testing.assert_array_equal(p2, s.inelastic_psd)
        with open(sidecar, encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["elastic_weight_photons_per_s"] == 0.3
        np.testing.assert_allclose(meta["lorentzian_fit"]["fwhm_hz"],
                                   2.0 / TWO_PI)

    def test_mirror_seed_comment(self, tmp_path):
        path = str(tmp_path / "mirror.csv")
        rows = [MirrorSweepRow(power=1.0, var_i_fwd=0.2, var_i_rev=0.05,
                               var_q_fwd=0.01, var_q_rev=0.01,
                               var_i_fwd_analytic=0.21,
                               var_i_rev_analytic=0.05)]
        io.write_mirror_csv(path, rows, seed=99)
        seed, parsed = read_mirror_csv(path)
        assert seed == 99
        assert parsed[0]["var_i_fwd"] == 0.2

    @pytest.mark.parametrize("reader, text", [
        (io.read_transmission_csv, "delta_omega_hz,t_abs\n1.0,0.5\n2.0\n"),
        (read_spectrum_csv, "freq_offset_hz,psd\n1.0,0.5\n2.0,0.1,7\n"),
        (read_mirror_csv, "# seed = 3\n" + ",".join(io.MIRROR_COLUMNS)
         + "\n1.0,0.2,0.05\n"),
    ], ids=["transmission", "spectrum", "mirror"])
    def test_ragged_row_rejected(self, tmp_path, reader, text):
        path = tmp_path / "ragged.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"ragged\.csv, line 3: expected"):
            reader(str(path))

    @pytest.mark.parametrize("reader, text", [
        (io.read_transmission_csv, "delta_omega_hz,t_abs\n1.0,0.5\n1.0,abc\n"),
        (io.read_transmission_csv,
         "delta_omega_hz,t_real,t_imag\n1.0,0.5,0.1\n2.0,0.5,abc\n"),
        (read_spectrum_csv, "freq_offset_hz,psd\n1.0,0.5\nabc,0.1\n"),
        (read_mirror_csv, "# seed = 3\n" + ",".join(io.MIRROR_COLUMNS)
         + "\n" + ",".join(["1.0"] * 7) + "\n" + ",".join(["abc"] * 7)
         + "\n"),
    ], ids=["magnitude", "complex", "spectrum", "mirror"])
    def test_non_number_cell_rejected(self, tmp_path, reader, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv, line [34]: could "
                           r"not convert string to float: 'abc'"):
            reader(str(path))


# Cells the column writers must format exactly as the row-by-row ones:
# signed zeros, NaN, infinities, subnormals, and numpy scalars of other
# widths and kinds.
EDGE_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e300, 1.0 / 3.0,
               np.float64(0.1), np.float32(0.1), np.float16(-2.5), 3,
               np.int64(-7), np.float64(-0.0)]


class TestColumnWriters:
    """The column writers against the row-by-row writers they replaced."""

    def same_bytes(self, tmp_path, write, write_rowwise, *args):
        new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
        write(new, *args)
        write_rowwise(ref, *args)
        with open(new, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("size", [len(EDGE_VALUES), 0])
    def test_magnitude_transmission(self, tmp_path, size):
        d = np.array(EDGE_VALUES[::-1][:size], dtype=float) * 1e6
        self.same_bytes(tmp_path, io.write_transmission_csv,
                        write_transmission_csv_rowwise, d, EDGE_VALUES[:size])

    @pytest.mark.parametrize("size", [len(EDGE_VALUES), 0])
    def test_complex_transmission(self, tmp_path, size):
        re = np.array(EDGE_VALUES, dtype=float).tolist()
        t = [complex(a, b) for a, b in zip(re, re[::-1])][:size]
        t[:2] = [complex(-0.0, np.nan), np.complex64(0.1 - 0.2j)][:size]
        d = list(np.linspace(-1e9, 1e9, len(EDGE_VALUES)))[:size]
        self.same_bytes(tmp_path, io.write_transmission_csv,
                        write_transmission_csv_rowwise, d, t)
        self.same_bytes(tmp_path, io.write_transmission_csv,
                        write_transmission_csv_rowwise, np.array(d),
                        np.array(t, dtype=complex))

    @pytest.mark.parametrize("size", [len(EDGE_VALUES), 0])
    def test_spectrum_table(self, tmp_path, size):
        vals = np.array(EDGE_VALUES[:size], dtype=float)
        s = SpectrumResult(elastic_weight=0.0, freq_offsets=vals[::-1],
                           inelastic_psd=vals)
        write = lambda path, s: io.write_spectrum_csv(path, s)  # noqa: E731
        self.same_bytes(tmp_path, write, write_spectrum_table_rowwise, s)

    @pytest.mark.parametrize("size", [len(EDGE_VALUES), 0])
    def test_mirror(self, tmp_path, size):
        rows = [MirrorSweepRow(*(EDGE_VALUES[(k + j) % len(EDGE_VALUES)]
                                 for j in range(7))) for k in range(size)]
        self.same_bytes(tmp_path, io.write_mirror_csv,
                        write_mirror_csv_rowwise, rows, 42)

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("t", [np.arange(3.0), np.arange(3.0) + 1j])
    def test_unequal_columns_rejected_before_the_file_is_opened(
            self, tmp_path, t, existing):
        path = tmp_path / "t.csv"
        if existing:
            path.write_text("delta_omega_hz,t_abs\n1.0,0.5\n")
        with pytest.raises(ValueError, match=r"columns \['delta_omega_hz', "
                           r"'t_.*'\] have unequal lengths \[5, 3"):
            io.write_transmission_csv(str(path), np.arange(5.0), t)
        if existing:
            assert path.read_text() == "delta_omega_hz,t_abs\n1.0,0.5\n"
        else:
            assert not path.exists()

    @pytest.mark.parametrize("workload", ["cli-quick", "spectrum-line"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_benchmark_files_match_the_rowwise_writers(
            self, tmp_path, monkeypatch, workload, seed):
        # Every data file the CLI writes through a column writer in the
        # benchmark's jobs is written again row by row from the same
        # arguments; the two must agree byte for byte.
        pairs = []

        def also_rowwise(write, write_rowwise):
            def wrapped(path, *args, **kwargs):
                write_rowwise(path + ".rowwise", *args[:2])
                pairs.append(path)
                return write(path, *args, **kwargs)
            return wrapped

        for name, rowwise in (("write_transmission_csv",
                               write_transmission_csv_rowwise),
                              ("write_spectrum_csv",
                               write_spectrum_table_rowwise),
                              ("write_mirror_csv", write_mirror_csv_rowwise)):
            monkeypatch.setattr(io, name,
                                also_rowwise(getattr(io, name), rowwise))
        for argv in benchmark_argvs(workload, seed, str(tmp_path)):
            assert run(argv) == EXIT_OK
        assert len(pairs) == 2
        for path in pairs:
            assert filecmp.cmp(path, path + ".rowwise", shallow=False), path


# ----------------------------------------------------------------------------
#                          End-to-end runs
# ----------------------------------------------------------------------------

class TestCliRuns:
    def test_steady_state_operating_point(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload())
        out = tmp_path / "out"
        assert run(["steady-state", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "steady_state.json").read_text())
        op = data["operating_point"]
        np.testing.assert_allclose(op["t_forward_abs"], 0.64458, atol=2e-4)
        np.testing.assert_allclose(op["t_reverse_abs"], 0.03283, atol=2e-4)
        np.testing.assert_allclose(op["efficiency"], 0.58205, atol=2e-4)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["mode"] == "steady-state"
        assert manifest["seed"] == 0
        assert manifest["config"]["gamma_r1_hz"] == 70e6

    def test_steady_state_general_drive(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload(p_over_gammabar=0.0,
                                                    alpha=0.3, beta=0.1))
        out = tmp_path / "out"
        assert run(["steady-state", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "steady_state.json").read_text())
        general = data["general"]
        assert 0.0 <= general["dark_population"] <= 1.0
        assert len(general["populations"]) == 4

    def test_strong_general_drive_is_the_operating_point(self, tmp_path):
        # alpha = 1e6 sqrt(gbar) is a flux of 1e12 gbar from the left.
        data = []
        for name, payload in (("general", steady_payload(p_over_gammabar=0.0,
                                                         alpha=1e6)),
                              ("point", steady_payload(p_over_gammabar=1e12))):
            cfg = write_config(tmp_path, payload, name=f"{name}.json")
            out = tmp_path / name
            assert run(["steady-state", "--config", cfg,
                        "--out", str(out)]) == EXIT_OK
            data.append(json.loads((out / "steady_state.json").read_text()))
        general, point = data[0]["general"], data[1]["operating_point"]
        np.testing.assert_allclose(general["dark_population"],
                                   point["dark_population_forward"],
                                   rtol=0, atol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["steady-state", "--config", cfg, "--out", str(out1)])
        run(["steady-state", "--config", cfg, "--out", str(out2)])
        assert filecmp.cmp(out1 / "steady_state.json",
                           out2 / "steady_state.json", shallow=False)

    def test_sweep_power_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 1.0,
            "n_powers": 3})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        table = np.genfromtxt(out / "power_sweep.csv", delimiter=",",
                              names=True)
        assert table.shape == (3,)
        assert np.all(np.diff(table["p_over_gammabar"]) > 0)
        assert np.all(np.isfinite(table["efficiency"]))

    def test_sweep_power_degenerate_rows_marked(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": 0.0,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 0.1,
            "n_powers": 2})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        table = np.genfromtxt(out / "power_sweep.csv", delimiter=",",
                              names=True)
        assert np.all(np.isnan(table["t_fwd_abs"]))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["notes"]

    def test_near_degenerate_sweep_keeps_its_failed_rows(self, tmp_path):
        # delta = 2e-5 and no loss: the dark state's decay, delta^2 gbar/2,
        # sinks below the solver's null-space threshold from p = 1.417 gbar.
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": 2e-5,
            "power_min_over_gammabar": 1e-3, "power_max_over_gammabar": 10.0,
            "n_powers": 100})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        table = np.genfromtxt(out / "power_sweep.csv", delimiter=",",
                              names=True)
        columns = [n for n in table.dtype.names if n != "p_over_gammabar"]
        failed = np.flatnonzero(np.isnan(table["t_fwd_abs"]))
        np.testing.assert_array_equal(failed, np.arange(78, 100))
        for name in columns:
            assert np.all(np.isnan(table[name][failed]))
            assert np.all(np.isfinite(table[name][:78]))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["notes"] == [
            f"p/gammabar = {p:.6g}: degenerate steady state: "
            "null space dimension 2"
            for p in np.geomspace(1e-3, 10.0, 100)[78:]]
        # Every solved row has a null gap below 1e-8, and each residual stays
        # below 1e-9 gamma_r, under the solver's bound of 1e-9 ||L||_F.
        diagnostics = manifest["diagnostics"]
        assert diagnostics["near_degenerate_rows"] == 78
        assert 0.0 < diagnostics["max_residual"] < 1e-9 * 2 * np.pi * 70e6

    @pytest.mark.parametrize("delta, low, high", [
        # Lossless and nearly degenerate: accepted rows sit just above the
        # solver's 1e-10 null-space threshold.
        (2e-5, 1e-10, 3e-10),
        # Every point takes the pencil route, whose gap is a lower bound:
        # the range holds for the SVD's gap.
        (DELTA, 1e-4, 1.0),
    ])
    def test_sweep_manifest_reports_the_null_gap(self, tmp_path, delta, low,
                                                 high):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": delta,
            "power_min_over_gammabar": 1e-3, "power_max_over_gammabar": 10.0,
            "n_powers": 100})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg,
                    "--out", str(out)]) == EXIT_OK
        diagnostics = json.loads(
            (out / "run_manifest.json").read_text())["diagnostics"]
        assert sorted(diagnostics) == sorted(
            ["min_null_gap", "max_residual", "near_degenerate_rows"])
        gap = diagnostics["min_null_gap"]
        if delta == DELTA:
            c = _diode_config(load("sweep-power", cfg).params)
            amps = np.sqrt(np.geomspace(1e-3, 10.0, 100) * c.gamma_bar)
            gaps, bounds = zip(*(sweep_null_gaps(c, side, amps)
                                 for side in ("forward", "reverse")))
            assert gap <= np.min(gaps)
            assert gap == pytest.approx(np.min(bounds), rel=1e-6)
            gap = np.min(gaps)
        assert low < gap < high
        assert 0.0 < diagnostics["max_residual"] < 1e-9 * 2 * np.pi * 70e6
        assert diagnostics["near_degenerate_rows"] == (
            78 if delta == 2e-5 else 0)

    def test_sweep_frequency_manifest_has_no_diagnostics(self, tmp_path):
        # sweep-frequency writes the closed form and solves nothing, so it
        # has no solver diagnostics to report, as fit has none.
        cfg = write_config(tmp_path, {
            "gamma_r_hz": 72.4299e6, "gamma_nr_hz": 191.1e3,
            "gamma_phi_hz": 211.4e3, "power_over_gamma_r": 0.3,
            "n_points": 101})
        out = tmp_path / "out"
        assert run(["sweep-frequency", "--config", cfg,
                    "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "diagnostics" not in manifest

    def test_sweep_manifest_null_gap_without_solved_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": 0.0,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 0.1,
            "n_powers": 2})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["diagnostics"] == {"min_null_gap": None,
                                           "max_residual": None,
                                           "near_degenerate_rows": 0}

    def test_sweep_power_file_is_library_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 65e6, "gamma_nr_hz": 2e5,
            "delta": DELTA, "power_min_over_gammabar": 1e-3,
            "power_max_over_gammabar": 3.0, "n_powers": 7})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        c = _diode_config(load("sweep-power", cfg).params)
        powers = np.geomspace(1e-3, 3.0, 7) * c.gamma_bar
        lib = str(tmp_path / "library.csv")
        io.write_sweep_csv(lib, power_sweep(c, powers), c.gamma_bar)
        assert filecmp.cmp(out / "power_sweep.csv", lib, shallow=False)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_power_scan_files_match_the_rowwise_writer(self, tmp_path, seed):
        # Both sweeps of the benchmark's power-scan workload, the lossy one
        # and the near-degenerate one with NaN rows, byte for byte.
        for cfg, out in benchmark_jobs("power-scan", seed, str(tmp_path)):
            assert run(["sweep-power", "--config", cfg, "--out", out]) == EXIT_OK
            p = load("sweep-power", cfg).params
            c = _diode_config(p)
            powers = np.geomspace(p["power_min_over_gammabar"],
                                  p["power_max_over_gammabar"],
                                  p["n_powers"]) * c.gamma_bar
            ref = os.path.join(out, "rowwise.csv")
            write_sweep_csv_rowwise(ref, power_sweep(c, powers), c.gamma_bar)
            assert filecmp.cmp(os.path.join(out, "power_sweep.csv"), ref,
                               shallow=False)

    def test_sweep_writer_matches_the_rowwise_writer_on_mixed_rows(
            self, tmp_path):
        nan_t = complex(np.nan, np.nan)
        rows = [
            DiodeOperatingPoint(
                power=np.float64(0.3), t_forward=0.6 - 0.2j,
                t_reverse=-0.1 + 0.05j, efficiency=np.float64(0.7),
                dark_population_forward=0.25,
                dark_population_reverse=np.float64(1e-300)),
            DiodeOperatingPoint(
                power=2, t_forward=nan_t, t_reverse=nan_t,
                efficiency=np.nan, dark_population_forward=np.nan,
                dark_population_reverse=np.nan, error="failed"),
            DiodeOperatingPoint(
                power=5e-324, t_forward=0j, t_reverse=-0.0 - 0.0j,
                efficiency=0.0, dark_population_forward=-0.0,
                dark_population_reverse=1.0),
        ]
        for name, sweep in (("mixed", rows), ("empty", [])):
            new, ref = (str(tmp_path / f"{name}{k}.csv") for k in (0, 1))
            io.write_sweep_csv(new, sweep, 0.7)
            write_sweep_csv_rowwise(ref, sweep, 0.7)
            assert filecmp.cmp(new, ref, shallow=False)

    def test_sweep_frequency_then_fit(self, tmp_path):
        # Weak probe: the fitter reconstructs the drive amplitude from the
        # initial rate guess, so saturation must stay negligible for the
        # round trip to close.
        scan_cfg = write_config(tmp_path, {
            "gamma_r_hz": 72.4299e6, "gamma_nr_hz": 191.1e3,
            "gamma_phi_hz": 211.4e3, "power_over_gamma_r": 1e-4,
            "span_linewidths": 4.0, "n_points": 41}, name="scan.json")
        out = tmp_path / "out"
        assert run(["sweep-frequency", "--config", scan_cfg,
                    "--out", str(out)]) == EXIT_OK
        fit_cfg = write_config(tmp_path, {
            "input_csv": str(out / "frequency_sweep.csv"),
            "initial_gamma_r_hz": 80e6, "initial_s_hz": 500e3,
            "power_over_gamma_r": 1e-4}, name="fit.json")
        assert run(["fit", "--config", fit_cfg, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "fit_result.json").read_text())
        np.testing.assert_allclose(result["gamma_r_hz"], 72.4299e6, rtol=1e-3)
        np.testing.assert_allclose(result["s_hz"], 191.1e3 + 2 * 211.4e3,
                                   rtol=1e-2)
        assert abs(result["center_offset_hz"]) < 1e3
        assert result["converged"]

    def test_magnitude_trace_is_fitted_in_magnitude(self, tmp_path):
        # "magnitude_only": false cannot make a |t| trace complex: the fit
        # is in magnitude, and recovers the line that made it.
        q = QubitParams(omega_q=0.0, gamma_r=TWO_PI * 70e6,
                        gamma_phi=TWO_PI * 300e3)
        delta = np.linspace(-4.0, 4.0, 201) * q.gamma_2
        scan = str(tmp_path / "scan.csv")
        io.write_transmission_csv(
            scan, delta, np.abs(transmission_analytic(q, delta, 0.0)))
        cfg = write_config(tmp_path, {"input_csv": scan,
                                      "initial_gamma_r_hz": 60e6,
                                      "magnitude_only": False})
        out = tmp_path / "out"
        assert run(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "fit_result.json").read_text())
        assert result["magnitude_only"] is True
        np.testing.assert_allclose(result["gamma_r_hz"], 70e6, rtol=1e-6)
        np.testing.assert_allclose(result["s_hz"], 600e3, rtol=1e-6)

    def test_singular_covariance_writes_null_standard_errors(self, tmp_path):
        # Every point at one detuning: the centre offset has a zero Jacobian
        # column, the covariance is singular and the standard errors are
        # infinite. Strict JSON has no Infinity, so they are written null.
        scan = tmp_path / "scan.csv"
        scan.write_text("delta_omega_hz,t_abs\n" + "0,0.2\n" * 5 + "0,0.6\n",
                        encoding="utf-8")
        cfg = write_config(tmp_path, {"input_csv": str(scan),
                                      "initial_gamma_r_hz": 70e6})
        out = tmp_path / "out"
        assert run(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK

        def strict(constant):
            raise ValueError(f"{constant} is not strict JSON")
        result = json.loads((out / "fit_result.json").read_text(),
                            parse_constant=strict)
        assert [result[f"stderr_{k}_hz"] for k in
                ("gamma_r", "s", "center_offset")] == [None, None, None]
        assert np.isfinite(result["gamma_r_hz"])

    def test_spectrum_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload(
            direction="forward", port="transmitted", n_freq=65,
            span_linewidths=10.0))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        w, p = read_spectrum_csv(str(out / "spectrum.csv"))
        assert w.size == 65
        assert np.all(p >= 0.0)
        meta = json.loads((out / "spectrum.json").read_text())
        assert meta["direction"] == "forward"
        assert meta["elastic_weight_photons_per_s"] > 0.0
        # At this drive power the measured line matches the
        # predicted_linewidth formula (see the width-versus-power table in
        # its docstring).
        ratio = meta["lorentzian_fit"]["fwhm_hz"] / meta["predicted_fwhm_hz"]
        assert 0.75 < ratio < 1.25

    def test_out_of_range_device_warns_once_at_its_caller(self, tmp_path):
        # One device outside the perturbative regime is one warning, and it
        # points at the code that made the device, not at the dataclass's
        # generated __init__.
        cfg = write_config(tmp_path, steady_payload(
            delta=1.2, direction="forward", port="transmitted", n_freq=65))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
        user = [w for w in caught if issubclass(w.category, UserWarning)]
        assert len(user) == 1, [str(w.message) for w in user]
        assert user[0].filename != "<string>"

    def test_mirror_mc_explicit(self, tmp_path):
        cfg = write_config(tmp_path, {
            "p_dark_fwd": 0.6, "p_dark_rev": 0.05, "sigma_w": 0.05,
            "n_samples": 4096, "power_min": 0.5, "power_max": 2.0,
            "n_powers": 3, "seed": 5})
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(["mirror-mc", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        run(["mirror-mc", "--config", cfg, "--out", str(out2)])
        run(["mirror-mc", "--config", cfg, "--out", str(out3), "--seed", "6"])
        assert filecmp.cmp(out1 / "mirror_sweep.csv", out2 / "mirror_sweep.csv",
                           shallow=False)
        assert not filecmp.cmp(out1 / "mirror_sweep.csv",
                               out3 / "mirror_sweep.csv", shallow=False)
        seed, rows = read_mirror_csv(str(out1 / "mirror_sweep.csv"))
        assert seed == 5
        assert len(rows) == 3

    def test_mirror_mc_from_device_state(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "p_over_gammabar": 0.05, "sigma_w": 0.02, "n_samples": 8192,
            "power_min": 1.0, "power_max": 4.0, "n_powers": 2})
        out = tmp_path / "out"
        assert run(["mirror-mc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert any("p_dark from diode steady state" in n
                   for n in manifest["notes"])
        _, rows = read_mirror_csv(str(out / "mirror_sweep.csv"))
        assert rows[-1]["var_i_fwd"] > rows[-1]["var_i_rev"]

    def test_console_script_smoke(self, tmp_path):
        # Without the installed console script, run the package as a module,
        # from the source tree this test imported it from.
        exe = shutil.which("qdiode")
        cmd = [exe] if exe else [sys.executable, "-m", "qdiode"]
        src = os.path.dirname(os.path.dirname(qdiode.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cfg = write_config(tmp_path, steady_payload())
        out = tmp_path / "out"
        proc = subprocess.run(cmd + ["steady-state", "--config", cfg,
                                     "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "steady_state.json").exists()

    def test_cold_import_skips_scipy_signal_and_stats(self, tmp_path):
        # A cold start pays for every module the CLI loads. No mode needs
        # scipy, and numpy.ma (which np.median and np.percentile import)
        # would cost tens of milliseconds inside the run.
        assert cold_run_modules(tmp_path, {"scipy", "numpy.ma"}) == (
            [0, 0, 0, 0, 0, 0], [])

    def test_cold_run_loads_no_locale_machinery(self, tmp_path):
        # argparse builds its parser through gettext, whose first lookup
        # imports locale: milliseconds of every cold job spent on help text.
        assert cold_run_modules(tmp_path, {"argparse", "gettext", "locale"}) == (
            [0, 0, 0, 0, 0, 0], [])

    @pytest.mark.parametrize("mode, payload, side", [
        ("steady-state", {}, None),
        ("steady-state", {"p_over_gammabar": 0.0, "alpha": 0.3}, "forward"),
        ("spectrum", {"direction": "reverse", "port": "reflected",
                      "n_freq": 65}, "reverse"),
        ("mirror-mc", {"sigma_w": 0.05, "n_samples": 64, "power_min": 0.0,
                       "power_max": 1.0, "n_powers": 2}, None),
    ], ids=["operating-point", "general-drive", "spectrum", "mirror-mc"])
    def test_single_point_manifest_diagnostics(self, tmp_path, mode,
                                               payload, side):
        # Each single-point mode reports the solver diagnostics of its one
        # steady state: an operating point those of a power_sweep at that
        # power, and a drive from one side those of that side's solve.
        cfg = write_config(tmp_path, steady_payload(
            gamma_r2_hz=66e6, gamma_nr_hz=2e5, gamma_phi_hz=2e5, **payload))
        out = tmp_path / "out"
        assert run([mode, "--config", cfg, "--out", str(out)]) == EXIT_OK
        p = load(mode, cfg).params
        c = _diode_config(p)
        # The general drive is alpha sqrt(gbar) from the left alone.
        power = (p["alpha"] ** 2 if "alpha" in payload
                 else p["p_over_gammabar"]) * c.gamma_bar
        info: dict = {}
        if side is None:
            power_sweep(c, [power], info=info)
        else:
            solved = _drive_sweep(c, [_drive(side, 1.0)],
                                  [np.sqrt(power)])[0][0]
            _gap_diagnostics(info, solved.null_gap[None],
                             solved.residual[None])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["diagnostics"] == info
        assert set(info) == {"min_null_gap", "max_residual",
                             "near_degenerate_rows"}
        assert 0.0 < info["min_null_gap"] < 1.0

    @pytest.mark.parametrize("mode, payload", [
        ("mirror-mc", {"p_dark_fwd": 0.6, "p_dark_rev": 0.05,
                       "sigma_w": 0.05, "power_min": 0.5, "power_max": 2.0,
                       "n_powers": 3, "n_samples": 10 ** 15}),
        ("sweep-power", {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6,
                         "delta": DELTA, "power_min_over_gammabar": 0.01,
                         "power_max_over_gammabar": 1.0,
                         "n_powers": 10 ** 15}),
        ("spectrum", steady_payload(direction="forward", port="transmitted",
                                    n_freq=10 ** 15 + 1)),
    ], ids=["mirror-mc", "sweep-power", "spectrum"])
    def test_unallocatable_count_is_a_config_error(self, tmp_path, capsys,
                                                   mode, payload):
        # 10^15 doubles are 7 PiB: the first allocation fails at once, and
        # touches no memory, before any data file is opened.
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run([mode, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: the arrays this config asks "
                              "for could not be allocated: ")
        assert "Traceback" not in err
        assert os.listdir(out) == []

    def test_no_module_imports_scipy(self):
        # numpy is the one runtime dependency. The cold-import test above
        # cannot see an import inside a function that no mode calls.
        paths = glob.glob(os.path.join(REPO, "src", "qdiode", "**", "*.py"),
                          recursive=True)
        assert paths
        found = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{os.path.basename(path)}:{node.lineno} {n}"
                          for n in names if n.split(".")[0] == "scipy"]
        assert found == []

    @staticmethod
    def callers(callee):
        """(file, top-level name) of each call of ``callee`` in the package."""
        paths = glob.glob(os.path.join(REPO, "src", "qdiode", "**", "*.py"),
                          recursive=True)
        assert paths
        found = []
        for path in sorted(paths):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for stmt in tree.body:
                owner = getattr(stmt, "name", "<module>")
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name)
                            else getattr(func, "attr", None))
                    if name == callee:
                        found.append((os.path.basename(path), owner))
        return found

    def test_one_builder_assembles_every_liouvillian(self):
        # Every model is a chain of emitters: a second builder could give a
        # model a convention of its own. A diode sweep assembles the chain's
        # terms too, its dissipators once and then each drive's commutator.
        assert self.callers("liouvillian_matrix") == [
            ("diode.py", "_drive_sweep"),
            ("diode.py", "_drive_sweep"),
            ("single_qubit.py", "emitter_chain")]
        assert self.callers("_chain_terms") == [
            ("diode.py", "_drive_sweep"),
            ("diode.py", "_drive_sweep"),
            ("single_qubit.py", "emitter_chain")]

    def test_one_path_solves_every_one_sided_drive(self):
        # operating_point is a one-power sweep, and a general drive and a
        # spectrum's state are the one single-point solve: a second route to
        # either could give them rows of their own. One emitter is never
        # solved: sweep-frequency writes its closed form, and no other mode
        # evaluates it.
        assert self.callers("transmission_analytic") == [
            ("cli.py", "_run_sweep_frequency")]
        assert self.callers("_drive_sweep") == [("diode.py", "driven_state"),
                                                ("diode.py", "power_sweep")]
        assert ("diode.py", "operating_point") in self.callers("power_sweep")
        assert self.callers("driven_state") == [("cli.py", "_run_steady_state"),
                                                ("spectrum.py", "psd")]

    def test_private_seams_are_pinned(self):
        # A private name imported by another module is a seam between
        # layers; a new one must be added here on purpose.
        paths = glob.glob(os.path.join(REPO, "src", "qdiode", "**", "*.py"),
                          recursive=True)
        found = set()
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    found |= {(os.path.basename(path), node.module, a.name)
                              for a in node.names
                              if a.name.startswith("_")
                              and not a.name.startswith("__")}
        assert found == {
            ("diode.py", "single_qubit", "_chain_terms"),
            ("spectrum.py", "diode", "_check_power"),
            ("spectrum.py", "diode", "_drive"),
            ("spectrum.py", "fitting", "_least_squares"),
            ("spectrum.py", "operators", "_hermitian_coordinates"),
        }

    def test_one_worker_map(self):
        # mirror-mc's records are the one work shared out among threads, on
        # one bound worker map; a second map could bind, stop or raise
        # differently, and a power sweep solves its sides in turn. The map
        # is private to mirror, so a second caller elsewhere would show up
        # as a new seam in test_private_seams_are_pinned.
        assert self.callers("_map_records") == [("mirror.py",
                                                 "variance_vs_power")]
        assert self.callers("Thread") == [("mirror.py", "_map_records")]
        paths = glob.glob(os.path.join(REPO, "src", "qdiode", "**", "*.py"),
                          recursive=True)
        threads, binds = set(), set()
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            name = os.path.basename(path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    if any(a.name == "threading" for a in node.names):
                        threads.add(name)
                elif isinstance(node, ast.ImportFrom):
                    if node.module == "threading":
                        threads.add(name)
                elif (isinstance(node, ast.Attribute)
                      and node.attr == "sched_setaffinity"):
                    binds.add(name)
        assert threads == binds == {"mirror.py"}

    def test_one_form_of_a_failed_solve(self):
        # steady_states reports a failed matrix as a NaN state beside its
        # message; an exception object among the states would be a second
        # form, and each caller would have to sort it out. Every mode that
        # solves does so through the diode's sweep, so none reaches the
        # one-matrix steady_state, whose raise would be a second route. The
        # sweep solves through pencil_states, whose every failed point is
        # steady_states' own.
        assert self.callers("steady_state") == []
        assert self.callers("steady_states") == [
            ("operators.py", "pencil_states"),
            ("operators.py", "steady_state")]
        assert self.callers("pencil_states") == [
            ("diode.py", "_drive_sweep")]
        paths = sorted(glob.glob(os.path.join(REPO, "src", "qdiode", "**",
                                              "*.py"), recursive=True))
        found = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and any(getattr(n, "id", getattr(n, "attr", None))
                                == "SolverError"
                                for n in ast.walk(node.args[1]))):
                    found.append(f"{os.path.basename(path)}:{node.lineno}")
        assert found == []

    def test_cli_leaves_the_model_to_the_library(self):
        # The runners convert units and write files; assembling a master
        # equation or its output operators belongs to the library.
        path = os.path.join(REPO, "src", "qdiode", "cli.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        model = {"diode_model", "emitter_chain"}
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if module in (".operators", "qdiode.operators"):
                    found.append(f"{node.lineno} from {module}")
                found += [f"{node.lineno} {a.name}" for a in node.names
                          if a.name == "operators" or a.name in model]
            elif isinstance(node, ast.Import):
                found += [f"{node.lineno} {a.name}" for a in node.names
                          if a.name == "qdiode.operators"]
            elif isinstance(node, ast.Name) and node.id in model:
                found.append(f"{node.lineno} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in model:
                found.append(f"{node.lineno} {node.attr}")
        assert found == []


class TestExitCodes:
    def test_config_error(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload(bogus_key=1.0))
        out = tmp_path / "out"
        assert run(["steady-state", "--config", cfg,
                    "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "run_manifest.json").exists()

    def test_removed_n_taus_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, steady_payload(
            direction="forward", port="transmitted", n_taus=6000))
        assert run(["spectrum", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "'n_taus'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, payload, key", [
        ("spectrum", steady_payload(direction="forward", port="transmitted",
                                    gamma_exc_hz=0.0), "gamma_exc_hz"),
        ("mirror-mc", {"p_dark_fwd": 0.6, "p_dark_rev": 0.05, "sigma_w": 0.05,
                       "power_min": 0.5, "power_max": 2.0, "n_powers": 3,
                       "dwell_samples": 10.0}, "dwell_samples"),
        ("sweep-power", {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6,
                         "delta": DELTA, "power_min_over_gammabar": 0.01,
                         "power_max_over_gammabar": 1.0, "n_powers": 3,
                         "side": "reverse"}, "side"),
    ], ids=["gamma_exc_hz", "dwell_samples", "side"])
    def test_removed_gamma_exc_key_rejected(self, tmp_path, capsys, mode,
                                            payload, key):
        cfg = write_config(tmp_path, payload)
        assert run([mode, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_ragged_fit_input(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("delta_omega_hz,t_abs\n1.0,0.5\n2.0\n",
                        encoding="utf-8")
        cfg = write_config(tmp_path, {"input_csv": str(scan),
                                      "initial_gamma_r_hz": 70e6})
        assert run(["fit", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err

    def test_non_number_fit_input(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("delta_omega_hz,t_abs\n1.0,abc\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"input_csv": str(scan),
                                      "initial_gamma_r_hz": 70e6})
        assert run(["fit", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {scan}, line 2: ")
        assert "'abc'" in err

    @pytest.mark.parametrize("mode, key", [("sweep-power", "alpha"),
                                           ("sweep-frequency", "beta")])
    def test_removed_sweep_drive_keys_rejected(self, tmp_path, capsys, mode,
                                               key):
        if mode == "sweep-power":
            payload = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6,
                       "delta": DELTA, "power_min_over_gammabar": 0.01,
                       "power_max_over_gammabar": 1.0, "n_powers": 3}
        else:
            payload = {"gamma_r_hz": 70e6, "power_over_gamma_r": 0.1}
        cfg = write_config(tmp_path, {**payload, key: 1.0})
        assert run([mode, "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gamma_r_hz", "n_points"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, key):
        payload = {"gamma_r_hz": 70e6, "power_over_gamma_r": 0.1}
        cfg = write_config(tmp_path, {**payload, key: 10 ** 400})
        assert run(["sweep-frequency", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"key '{key}' is beyond the float range" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("drive", [{"alpha": 0.2}, {"beta": 0.1}])
    def test_power_with_general_drive_rejected(self, tmp_path, capsys, drive):
        cfg = write_config(tmp_path, steady_payload(**drive))
        out = tmp_path / "out"
        assert run(["steady-state", "--config", cfg,
                    "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "p_over_gammabar" in err and "alpha or beta" in err
        assert not out.exists()

    def test_overflowing_frequency_grid_is_a_config_error(self, tmp_path,
                                                          capsys):
        # gamma_2 times the span overflows, or the span from -half_span to
        # half_span does: the grid is refused before np.linspace would warn
        # and fill it with infinities and NaNs.
        for gamma_r_hz, span in ((1e300, 1e10), (70e6, 5e299)):
            cfg = write_config(tmp_path, {"gamma_r_hz": gamma_r_hz,
                                          "power_over_gamma_r": 0.1,
                                          "span_linewidths": span})
            out = tmp_path / "out"
            assert run(["sweep-frequency", "--config", cfg,
                        "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: detuning grid must be finite\n")
            assert not (out / "run_manifest.json").exists()

    def test_overflowing_power_grid_is_a_config_error(self, tmp_path, capsys):
        # gamma_bar times power_max_over_gammabar overflows: refused before
        # the grid is scaled, which would warn.
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 1e308,
            "n_powers": 3})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg,
                    "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: drive power must be finite and >= 0, got inf\n")
        assert not (out / "run_manifest.json").exists()

    def test_overflowing_mirror_variance_is_a_config_error(self, tmp_path,
                                                           capsys):
        # At alpha = 1e154 the squares of the record's deviations sum beyond
        # the float range: no inf is written beside the finite closed form.
        cfg = write_config(tmp_path, {"p_dark_fwd": 0.5, "p_dark_rev": 0.5,
                                      "sigma_w": 0.1, "power_min": 0,
                                      "power_max": 1e308, "n_powers": 2,
                                      "n_samples": 16})
        out = tmp_path / "out"
        assert run(["mirror-mc", "--config", cfg,
                    "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: sample variance at power 1e+308 is not finite\n")
        assert not (out / "mirror_sweep.csv").exists()
        assert not (out / "run_manifest.json").exists()

    def test_far_detuned_frequency_grid_transmits(self, tmp_path):
        # Every finite detuning has a transmission, |t| -> 1 far from
        # resonance, where (delta/gamma_2)^2 overflows.
        cfg = write_config(tmp_path, {"gamma_r_hz": 70e6,
                                      "power_over_gamma_r": 0.1,
                                      "span_linewidths": 1e200,
                                      "n_points": 5})
        out = tmp_path / "out"
        assert run(["sweep-frequency", "--config", cfg,
                    "--out", str(out)]) == EXIT_OK
        delta, t = io.read_transmission_csv(str(out / "frequency_sweep.csv"))
        assert np.all(np.isfinite(delta)) and np.all(np.isfinite(t))
        np.testing.assert_allclose(np.abs(t[[0, 1, 3, 4]]), 1.0, rtol=0,
                                   atol=1e-15)

    def test_missing_config_file(self, tmp_path):
        assert run(["steady-state", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_solver_error(self, tmp_path):
        # Symmetric device, no dephasing, driven: the stationary state is
        # not unique and the solver must say so.
        cfg = write_config(tmp_path, steady_payload(delta=0.0))
        assert run(["steady-state", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_SOLVER

    def test_linalg_error_is_a_solver_error(self, tmp_path, capsys,
                                            monkeypatch):
        # numpy's LinAlgError is a ValueError, but raised by a solve it is a
        # solver error, not a configuration error.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr("qdiode.spectrum.inelastic_spectrum", fail)
        cfg = write_config(tmp_path, steady_payload(
            direction="forward", port="transmitted", n_freq=65))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", cfg,
                    "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "solver error: Eigenvalues did not converge\n")
        assert not (out / "run_manifest.json").exists()

    def test_fit_error(self, tmp_path):
        scan = str(tmp_path / "flat.csv")
        d = np.linspace(-1e9, 1e9, 50)
        io.write_transmission_csv(scan, d, np.full(50, 0.5 + 0.0j))
        cfg = write_config(tmp_path, {"input_csv": scan,
                                      "initial_gamma_r_hz": 70e6})
        assert run(["fit", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_FIT

    @settings(PROPERTY, max_examples=300)
    @given(fit_runs())
    def test_fit_keeps_its_exit_codes_on_drawn_traces(self, drawn):
        # Accuracy is not asserted: a drive far from weak biases the fit,
        # whose drive is taken from the start (ROADMAP item 10).
        config, delta, t = drawn
        with tempfile.TemporaryDirectory() as tmp:
            scan = os.path.join(tmp, "scan.csv")
            io.write_transmission_csv(scan, delta, t)
            cfg = write_config(pathlib.Path(tmp),
                               {**config, "input_csv": scan})
            out = os.path.join(tmp, "out")
            code = run(["fit", "--config", cfg, "--out", out])
            assert code in (EXIT_OK, EXIT_FIT)
            if code == EXIT_OK:
                with open(os.path.join(out, "fit_result.json"),
                          encoding="utf-8") as fh:
                    result = json.load(fh)
                assert all(math.isfinite(v) for k, v in result.items()
                           if not (k.startswith("stderr_") and v is None)), \
                    result

    def test_negative_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload())
        assert run(["steady-state", "--config", cfg,
                    "--out", str(tmp_path / "out"),
                    "--seed", "-3"]) == EXIT_CONFIG

    def test_config_error_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, steady_payload(bogus_key=1.0))
        assert run(["steady-state", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")


class TestUsage:
    """Command-line usage errors print the usage line and exit with code 2,
    the configuration-error code, and write no output directory."""

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus", "--config", "c.json"],
        ["steady-state"],
        ["spectrum", "--config", "c.json", "--seed", "x"],
        ["fit", "--config", "c.json", "--seed", "1.5"],
        ["mirror-mc", "--config", "c.json", "--threads", "2"],
        ["steady-state", "fit", "--config", "c.json"],
        ["steady-state", "--config"],
        ["steady-state", "--out", "--config", "c.json"],
        ["steady-state", "--conf", "c.json"],
    ], ids=["no-mode", "unknown-mode", "no-config", "word-seed",
            "fraction-seed", "unknown-option", "second-positional",
            "config-last", "option-as-value", "abbreviated-option"])
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_CONFIG == 2
        assert "usage: qdiode" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                      ["spectrum", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qdiode")

    def test_help_lists_every_mode(self, capsys):
        with pytest.raises(SystemExit):
            run(["--help"])
        out = capsys.readouterr().out
        assert all(mode in out for mode in MODES)

    def test_help_lists_every_option(self, capsys):
        with pytest.raises(SystemExit):
            run(["-h"])
        out = capsys.readouterr().out
        assert all(opt in out for opt in ("--config", "--out", "--seed"))

    def test_usage_error_message(self, capsys):
        # Options are never abbreviated, where argparse took a prefix.
        with pytest.raises(SystemExit):
            run(["steady-state", "--conf", "c.json"])
        assert capsys.readouterr().err == (
            "usage: qdiode <mode> --config FILE [--out DIR] [--seed N]\n"
            "qdiode: error: unrecognized arguments: --conf c.json\n")

    @pytest.mark.parametrize("form", ["equals", "options-first"])
    def test_option_forms(self, tmp_path, form):
        # --opt=value, and options before the mode, read as the spaced form
        # after the mode.
        cfg = write_config(tmp_path, steady_payload())
        spaced, other = tmp_path / "spaced", tmp_path / form
        argv = {"equals": ["steady-state", f"--config={cfg}",
                           f"--out={other}", "--seed=3"],
                "options-first": ["--seed", "3", "--out", str(other),
                                  "--config", cfg, "steady-state"]}[form]
        assert run(argv) == EXIT_OK
        assert run(["steady-state", "--config", cfg, "--out", str(spaced),
                    "--seed", "3"]) == EXIT_OK
        assert filecmp.cmp(spaced / "steady_state.json",
                           other / "steady_state.json", shallow=False)
        manifest = json.loads((other / "run_manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_module_exit_codes(self, tmp_path):
        # The codes a shell sees from ``python -m qdiode``.
        src = os.path.dirname(os.path.dirname(qdiode.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cfg = write_config(tmp_path, steady_payload(bogus_key=1.0))
        codes = {}
        for name, argv in (("help", ["--help"]), ("usage", ["bogus"]),
                           ("config", ["steady-state", "--config", cfg,
                                       "--out", str(tmp_path / "out")])):
            proc = subprocess.run([sys.executable, "-m", "qdiode", *argv],
                                  capture_output=True, text=True, env=env)
            codes[name] = proc.returncode
            if name == "config":
                assert proc.stderr.startswith("config error:"), proc.stderr
        assert codes == {"help": 0, "usage": 2, "config": 2}
