"""Config validation, unit discipline, file formats, and end-to-end runs.

The CLI tests run the real entry point in process and assert on the files it
leaves behind; one smoke test goes through the installed console script. The
physics numbers asserted here are pinned by the solver test modules, so a
disagreement points at the plumbing rather than the model.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qdiode
from qdiode import io
from qdiode.cli import (EXIT_CONFIG, EXIT_FIT, EXIT_OK, EXIT_SOLVER,
                        _diode_config, run)
from qdiode.config import TWO_PI, ConfigError, load, validate
from qdiode.diode import SweepRow, power_sweep
from qdiode.spectrum import LorentzianFit, SpectrumResult

DELTA = float(np.sqrt(1e-3))


def steady_payload(**overrides):
    base = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "p_over_gammabar": 0.05}
    base.update(overrides)
    return base


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


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

    def test_bidirectional_sweep_drive_rejected(self):
        raw = {"gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
               "power_min_over_gammabar": 0.01,
               "power_max_over_gammabar": 1.0, "n_powers": 3,
               "alpha": 0.1, "beta": 0.1}
        with pytest.raises(ConfigError, match="one port at a time"):
            validate("sweep-power", raw)

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

    def test_explicit_and_derived_exclusive(self):
        raw = dict(self.BASE, p_dark_fwd=0.6, p_dark_rev=0.05,
                   gamma_r1_hz=70e6, gamma_r2_hz=70e6, delta=DELTA,
                   p_over_gammabar=0.05)
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

    def test_magnitude_transmission(self, tmp_path):
        path = str(tmp_path / "scan.csv")
        d = np.linspace(-1e9, 1e9, 5)
        t = np.linspace(0.1, 1.0, 5)
        io.write_transmission_csv(path, d, t)
        d2, t2 = io.read_transmission_csv(path)
        assert not np.iscomplexobj(t2)
        np.testing.assert_array_equal(t2, t)

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            io.read_transmission_csv(str(path))

    def test_sweep_header_and_nan_rows(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        nan = float("nan")
        rows = [SweepRow(power=1.0, t_forward=0.5 + 0.1j, t_reverse=0.02 + 0j,
                         efficiency=0.4, dark_population_forward=0.6,
                         dark_population_reverse=0.01),
                SweepRow(power=2.0, t_forward=complex(nan, nan),
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
                           inelastic_psd=np.exp(-w ** 2)).with_fit(
            LorentzianFit(center=0.1, fwhm=2.0, area=1.5, peak_height=0.9,
                          offset=0.0, residual_norm=1e-3))
        sidecar = io.write_spectrum_csv(path, s)
        w2, p2 = io.read_spectrum_csv(path)
        np.testing.assert_array_equal(w2, w)
        np.testing.assert_array_equal(p2, s.inelastic_psd)
        with open(sidecar, encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["elastic_weight_photons_per_s"] == 0.3
        np.testing.assert_allclose(meta["lorentzian_fit"]["fwhm_hz"],
                                   2.0 / TWO_PI)

    def test_mirror_seed_comment(self, tmp_path):
        from qdiode.mirror import MirrorSweepRow
        path = str(tmp_path / "mirror.csv")
        rows = [MirrorSweepRow(power=1.0, var_i_fwd=0.2, var_i_rev=0.05,
                               var_q_fwd=0.01, var_q_rev=0.01,
                               var_i_fwd_analytic=0.21,
                               var_i_rev_analytic=0.05)]
        io.write_mirror_csv(path, rows, seed=99)
        seed, parsed = io.read_mirror_csv(path)
        assert seed == 99
        assert parsed[0]["var_i_fwd"] == 0.2


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
        notes = json.loads((out / "run_manifest.json").read_text())["notes"]
        assert notes == [f"p/gammabar = {p:.6g}: degenerate steady state: "
                         "null space dimension 2"
                         for p in np.geomspace(1e-3, 10.0, 100)[78:]]

    @pytest.mark.parametrize("delta, low, high", [
        # Lossless and nearly degenerate: accepted rows sit just above the
        # solver's 1e-10 null-space threshold.
        (2e-5, 1e-10, 3e-10),
        (DELTA, 1e-4, 1.0),
    ])
    def test_sweep_manifest_reports_the_null_gap(self, tmp_path, delta, low,
                                                 high):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": delta,
            "power_min_over_gammabar": 1e-3, "power_max_over_gammabar": 10.0,
            "n_powers": 100})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert low < manifest["diagnostics"]["min_null_gap"] < high

    def test_sweep_manifest_null_gap_without_solved_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": 0.0,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 0.1,
            "n_powers": 2})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["diagnostics"] == {"min_null_gap": None}

    def test_sweep_power_reverse_only(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gamma_r1_hz": 70e6, "gamma_r2_hz": 70e6, "delta": DELTA,
            "power_min_over_gammabar": 0.01, "power_max_over_gammabar": 1.0,
            "n_powers": 3, "beta": 1.0})
        out = tmp_path / "out"
        assert run(["sweep-power", "--config", cfg, "--out", str(out)]) == EXIT_OK
        table = np.genfromtxt(out / "power_sweep.csv", delimiter=",",
                              names=True)
        for col in ("t_rev_abs", "t_rev_arg", "dark_pop_rev"):
            assert np.all(np.isfinite(table[col]))
        for col in ("t_fwd_abs", "dark_pop_fwd", "efficiency"):
            assert np.all(np.isnan(table[col]))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "notes" not in manifest

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

    def test_sweep_frequency_beta_matches_alpha(self, tmp_path):
        # A lone drive from either side sees the same emitter.
        scan = {"gamma_r_hz": 72.4299e6, "gamma_nr_hz": 191.1e3,
                "gamma_phi_hz": 211.4e3, "power_over_gamma_r": 0.3,
                "span_linewidths": 4.0, "n_points": 41}
        outs = []
        for name, extra in (("alpha", {}), ("beta", {"beta": 1.0})):
            cfg = write_config(tmp_path, {**scan, **extra},
                               name=f"{name}.json")
            outs.append(tmp_path / name)
            assert run(["sweep-frequency", "--config", cfg,
                        "--out", str(outs[-1])]) == EXIT_OK
        assert filecmp.cmp(outs[0] / "frequency_sweep.csv",
                           outs[1] / "frequency_sweep.csv", shallow=False)

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

    def test_spectrum_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload(
            direction="forward", port="transmitted", n_freq=65,
            span_linewidths=10.0))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        w, p = io.read_spectrum_csv(str(out / "spectrum.csv"))
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
        seed, rows = io.read_mirror_csv(str(out1 / "mirror_sweep.csv"))
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
        _, rows = io.read_mirror_csv(str(out / "mirror_sweep.csv"))
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
                "import qdiode.cli; "
                "codes = [qdiode.cli.run(a) for a in json.loads(sys.argv[2])]; "
                "print(codes, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))")
        proc = subprocess.run([sys.executable, "-c", code, src,
                               json.dumps(argvs)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 0] []"


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

    def test_missing_config_file(self, tmp_path):
        assert run(["steady-state", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_solver_error(self, tmp_path):
        # Symmetric device, no dephasing, driven: the stationary state is
        # not unique and the solver must say so.
        cfg = write_config(tmp_path, steady_payload(delta=0.0))
        assert run(["steady-state", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_SOLVER

    def test_fit_error(self, tmp_path):
        scan = str(tmp_path / "flat.csv")
        d = np.linspace(-1e9, 1e9, 50)
        io.write_transmission_csv(scan, d, np.full(50, 0.5 + 0.0j))
        cfg = write_config(tmp_path, {"input_csv": scan,
                                      "initial_gamma_r_hz": 70e6})
        assert run(["fit", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == EXIT_FIT

    def test_negative_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, steady_payload())
        assert run(["steady-state", "--config", cfg,
                    "--out", str(tmp_path / "out"),
                    "--seed", "-3"]) == EXIT_CONFIG
