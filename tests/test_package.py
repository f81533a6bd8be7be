"""The package surface and the import graph.

``qdiode/__init__.py`` names each public name once, in a table of the
submodule that defines it, and imports that submodule on first use (PEP
562). These tests pin what a caller sees: every name resolves to its
submodule's object, a bare ``import qdiode`` loads neither numpy nor any
submodule, and ``io`` imports no physics module. They also pin the one
kind of plain record: a dataclass validates its fields in
``__post_init__``, and every other record is a NamedTuple. And every config
key is read by its mode's runner: a key that no runner reads could only be an
option that changes nothing.
"""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys

import pytest

import qdiode
from qdiode import cli, config

SRC = os.path.dirname(os.path.dirname(qdiode.__file__))
PHYSICS = ["diode", "fitting", "mirror", "operators", "single_qubit",
           "spectrum"]
# The records with no checks of their own, by module.
RECORDS = [("config", "Field"), ("config", "RunConfig"),
           ("diode", "DiodeOperatingPoint"), ("diode", "DrivenState"),
           ("fitting", "FitReport"), ("fitting", "_Solution"),
           ("mirror", "IQRecord"), ("mirror", "MirrorSweepRow"),
           ("spectrum", "LorentzianFit"), ("spectrum", "SpectrumResult")]


@pytest.fixture(scope="module")
def cold_import():
    """sys.modules of a fresh interpreter after ``import qdiode``, after
    ``import qdiode.io`` and after a first ``qdiode.diode``, with what a
    bare ``import qdiode`` lets a caller reach."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "seen = lambda: sorted(m for m in sys.modules "
        "if m == 'numpy' or m.startswith('qdiode')); "
        "import qdiode; bare = seen(); "
        "reach = {n: hasattr(qdiode, n) for n in ('cli', 'config', 'io')}; "
        "import qdiode.io; io = seen(); "
        "same = qdiode.diode.power_sweep is qdiode.power_sweep; "
        "print(json.dumps([bare, reach, io, seen(), same]))")
    proc = subprocess.run([sys.executable, "-c", code, SRC],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule_and_no_numpy(cold_import):
    bare, reach, _, _, _ = cold_import
    assert bare == ["qdiode"]
    # cli, config and io were never bound by the package: each still needs
    # its own import.
    assert reach == {"cli": False, "config": False, "io": False}


def test_io_imports_no_physics_module(cold_import):
    _, _, io, _, _ = cold_import
    assert io == ["numpy", "qdiode", "qdiode.io"]


def test_a_submodule_resolves_on_first_use(cold_import):
    _, _, _, after, same = cold_import
    assert "qdiode.diode" in after
    assert same


@pytest.mark.parametrize("name", [n for n in qdiode.__all__
                                  if n != "__version__"])
def test_every_public_name_is_its_submodules_object(name):
    obj = getattr(qdiode, name)
    assert obj.__module__.startswith("qdiode.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_re_exported_names_are_one_object():
    assert qdiode.SolverError is qdiode.diode.SolverError
    assert qdiode.SolverError is qdiode.operators.SolverError


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from qdiode import *", namespace)
    assert set(qdiode.__all__) <= set(namespace)
    assert namespace["__version__"] == qdiode.__version__


def test_dir_lists_every_public_name_and_submodule():
    assert set(qdiode.__all__) | set(PHYSICS) <= set(dir(qdiode))


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", "np"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(qdiode, name)
    assert not hasattr(qdiode, name)


def test_io_imports_submodules_for_annotations_only():
    # io writes records it never builds: a module-level import of diode,
    # mirror or spectrum would load the physics into every io caller. The
    # package itself (``from . import __version__``) loads no submodule.
    path = os.path.join(SRC, "qdiode", "io.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    guarded = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            guarded |= {id(n) for n in ast.walk(node)}
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative
    outside = [(node.module, [a.name for a in node.names])
               for node in relative if id(node) not in guarded]
    assert outside == [(None, ["__version__"])]


def package_classes():
    """(module, class node) for every class defined in ``src/qdiode``."""
    for path in sorted(glob.glob(os.path.join(SRC, "qdiode", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield module, node


def test_only_self_validating_records_are_dataclasses():
    decorated, named_tuples = {}, set()
    for module, node in package_classes():
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators):
            decorated[node.name] = {n.name for n in node.body
                                      if isinstance(n, ast.FunctionDef)}
        if any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               for b in node.bases):
            named_tuples.add((module, node.name))
    assert set(decorated) == {"QubitParams", "DiodeConfig", "MirrorModel"}
    assert all("__post_init__" in methods for methods in decorated.values())
    assert named_tuples == {("operators", "SteadyStates"), *RECORDS}


@pytest.mark.parametrize("module, name", RECORDS)
def test_a_record_is_immutable_and_replaces_one_field(module, name):
    cls = getattr(importlib.import_module(f"qdiode.{module}"), name)
    values = [object() for _ in cls._fields]
    record = cls(*values)
    for k, field in enumerate(cls._fields):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        new = object()
        changed = record._replace(**{field: new})
        assert type(changed) is cls
        assert getattr(changed, field) is new
        assert all(a is b for i, (a, b) in enumerate(zip(changed, values))
                   if i != k)
        assert all(a is b for a, b in zip(record, values))


def params_reads(function):
    """The keys ``function`` reads from its params dict ``p``: those of its
    ``p["k"]`` subscripts, and those of its ``p.get("k", ...)`` calls."""
    subscripts, gets = set(), set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "p"
                and isinstance(node.slice, ast.Constant)):
            subscripts.add(node.slice.value)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "p"):
            gets.add(node.args[0].value)
    return subscripts, gets


@pytest.mark.parametrize("mode", config.MODES)
def test_every_schema_key_is_read_by_its_runner(mode):
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), cli.__file__)
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    runner = functions[cli._RUNNERS[mode].__name__]
    # A runner that builds the two-qubit device reads its keys there.
    parts = [runner]
    if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "_diode_config" for node in ast.walk(runner)):
        parts.append(functions["_diode_config"])
    subscripts, gets = set(), set()
    for function in parts:
        s, g = params_reads(function)
        subscripts |= s
        gets |= g
    schema = set(config.SCHEMAS[mode])
    assert schema - subscripts - gets == set()
    assert subscripts - schema == set()
