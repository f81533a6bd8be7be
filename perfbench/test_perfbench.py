"""Tests of the benchmark's own arithmetic, tracer and definitions.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import sys
import types

import pytest

import jobs
import run
import tracer
from tracer import END, ERROR, JOB, NAME, PARENT, START, VALUE

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _span(name, start, end, parent=-1, job="j", error=False, value=None):
    return [name, start, end, parent, job, error, value]


# -----------------------------------------------------------------------------
#                             Self-time arithmetic
# -----------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [_span("cli.run", 0.0, 10.0),
             _span("diode.transmission", 1.0, 3.0, parent=0),
             _span("operators.steady_state", 4.0, 8.0, parent=0),
             _span("operators.unvec", 5.0, 6.0, parent=2)]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    # The self times of a tree add up to its root's duration.
    assert sum(tracer.self_times(spans)) == 10.0


def test_aggregate_names_layers_and_jobs():
    spans = [_span("cli.run", 0.0, 10.0, job="a"),
             _span("operators.steady_state", 1.0, 3.0, parent=0, job="a"),
             _span("operators.unvec", 1.5, 2.0, parent=1, job="a"),
             _span("operators.steady_state", 4.0, 5.0, parent=0, job="a",
                   error=True),
             _span("cli.run", 20.0, 22.0, job="b"),
             _span("spectrum.least_squares", 20.5, 21.0, parent=4, job="b",
                   value=7)]
    by_name, by_layer = tracer.aggregate(spans)
    ss = by_name["operators.steady_state"]
    assert (ss["calls"], ss["errors"]) == (2, 1)
    assert ss["incl_s"] == pytest.approx(3.0)
    assert ss["self_s"] == pytest.approx(2.5)
    assert by_name["spectrum.least_squares"]["value"] == 7
    # unvec is called from inside operators: no new entry into the layer.
    assert by_layer["operators"]["calls"] == 2
    assert by_layer["operators"]["self_s"] == pytest.approx(3.0)
    assert by_layer["cli"]["self_s"] == pytest.approx(7.0 + 1.5)
    job_b, _ = tracer.aggregate(spans, job="b")
    assert set(job_b) == {"cli.run", "spectrum.least_squares"}
    assert job_b["cli.run"]["self_s"] == pytest.approx(1.5)


# -----------------------------------------------------------------------------
#                                  Tracer
# -----------------------------------------------------------------------------

@pytest.fixture
def fake_package():
    """fakepkg.core defines functions; fakepkg.user binds them by name."""
    core = types.ModuleType("fakepkg.core")
    exec("def work(x):\n    return helper(x) + 1\n"
         "def helper(x):\n    return 2 * x\n"
         "def fail():\n    raise RuntimeError('no')\n"
         "def _private():\n    return 0\n", core.__dict__)
    for fn in ("work", "helper", "fail", "_private"):
        core.__dict__[fn].__module__ = "fakepkg.core"
    user = types.ModuleType("fakepkg.user")
    user.work, user.fail = core.work, core.fail

    def expm(x):
        return x
    expm.__module__ = "scipy.linalg._matfuncs"
    user.expm = expm
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield core, user
    for name in modules:
        del sys.modules[name]


def test_tracer_wraps_every_binding(fake_package):
    core, user = fake_package
    originals = (core.work, user.work, core._private)
    t = tracer.Tracer()
    t.install("fakepkg")
    assert t.names == {"core.work", "core.helper", "core.fail", "user.expm"}
    assert core._private is originals[2]
    t.job = "j1"
    assert user.work(3) == 7          # through the by-name binding
    assert core.work(1) == 3          # through the defining module
    user.expm(0)
    with pytest.raises(RuntimeError):
        user.fail()
    names = [s[NAME] for s in t.spans]
    assert names == ["core.work", "core.helper", "core.work", "core.helper",
                     "user.expm", "core.fail"]
    assert [s[PARENT] for s in t.spans] == [-1, 0, -1, 2, -1, -1]
    assert all(s[JOB] == "j1" and s[END] >= s[START] for s in t.spans)
    assert [s[ERROR] for s in t.spans] == [False] * 5 + [True]
    assert all(s[VALUE] is None for s in t.spans)
    t.uninstall()
    assert (core.work, user.work) == originals[:2]


def test_work_counts_survive_a_changed_return_type():
    sol = types.SimpleNamespace(nfev=12)
    t = tracer.Tracer()
    value_of = t._wrap("spectrum.least_squares", lambda: sol)
    assert value_of() is sol
    broken = t._wrap("spectrum.least_squares", lambda: object())
    broken()
    assert [s[VALUE] for s in t.spans] == [12, None]


# -----------------------------------------------------------------------------
#                            Metric definitions
# -----------------------------------------------------------------------------

def test_benchmark_names_and_units_are_valid():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME_RE.match(n), n
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)


def test_metric_name_pattern_rejects_bad_names():
    for bad in ("", ".x", "a b", "x/y", "é", "a" * 65):
        assert not NAME_RE.match(bad)


def test_layer_metrics_match_benchmark_and_report_absent_functions():
    """A program without any of the traced functions still yields every
    declared metric, as 0, and names the missing functions."""
    wl_jobs = jobs.make_jobs("power-scan", 0, "w")
    metrics, absent = run.layer_metrics([], set(), wl_jobs, {}, 0)
    declared = {m["name"] for m in _bench()["per_layer"]}
    declared -= {"trace.overhead", *run.IMPORT_METRICS}
    assert set(metrics) == declared
    assert "operators.steady_state" in absent
    assert "spectrum.half_sided_transform" in absent
    assert all(v == 0 for v in metrics.values())


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["map"]
    declared = {m["name"] for m in _bench()["per_layer"]}
    assert set(layer_map) == declared
    e2e = {m["name"] for m in _bench()["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) <= set(jobs.WORKLOADS)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:       200 |        300 |     scipy.linalg",
        "import time:        50 |        350 |   qdiode.operators",
        "import time:        10 |        360 | qdiode",
        "import time:        20 |         20 |     scipy.signal",
        "import time:        30 |         50 |   qdiode.spectrum",
        "import time:         5 |         55 | qdiode.cli",
        "import time:         7 |          7 | json",
    ])
    out = run.parse_importtime(text)
    assert out["scipy.linalg"] == pytest.approx(300e-6)
    assert out["scipy.signal"] == pytest.approx(20e-6)
    # Only the outermost qdiode entries count, once each.
    assert out["qdiode"] == pytest.approx(415e-6)


# -----------------------------------------------------------------------------
#                         Workloads and output checks
# -----------------------------------------------------------------------------

def test_jobs_depend_only_on_the_seed():
    for wl in jobs.WORKLOADS:
        a = jobs.make_jobs(wl, 7, "w")
        assert a == jobs.make_jobs(wl, 7, "w")
        assert [j.name for j in a] == [j.name for j in jobs.make_jobs(wl, 8, "w")]
    assert jobs.make_jobs("cli-quick", 7, "w") != jobs.make_jobs("cli-quick", 8, "w")


def test_job_configs_use_only_kept_keys_and_validate():
    """No n_taus and no thread count: the configs outlive a change of
    spectrum method or sweep engine."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    try:
        from qdiode.config import validate
    finally:
        sys.path.pop(0)
    for wl in jobs.WORKLOADS:
        for seed in (0, 1, 2):
            for job in jobs.make_jobs(wl, seed, "w"):
                assert "n_taus" not in job.config
                assert "--threads" not in jobs.argv("w", job, seed)
                validate(job.mode, job.config)


def test_compare_applies_each_tolerance_kind():
    job = jobs.make_jobs("spectrum-line", 0, "w")[0]
    ref = {"elastic_weight_photons_per_s": 1e7, "fwhm_hz": 1e6,
           "center_over_fwhm": 0.0, "psd": [0.0, 1.0, 0.5]}
    near = {"elastic_weight_photons_per_s": 1e7 * (1 + 1e-9),
            "fwhm_hz": 1e6 * (1 + 1e-4), "center_over_fwhm": 1e-4,
            "psd": [5e-6, 1.0, 0.5 - 5e-6]}
    assert jobs.compare(job, near, ref) == []
    far = dict(near, psd=[2e-5, 1.0, 0.5])
    assert len(jobs.compare(job, far, ref)) == 1
    assert jobs.compare(job, {"psd": []}, ref)


def test_efficiency_formula():
    assert jobs.efficiency(0.0, 0.0) == 0.0
    assert jobs.efficiency(0.6, 0.2) == pytest.approx(0.6 * 0.4 / 0.8)
