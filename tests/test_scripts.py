"""Command lines of the repository's scripts: a bad argument is a usage
error (exit 2) before any job runs, and -h or --help prints the help."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAME_OUTPUTS = os.path.join(REPO, "scripts", "same_outputs.py")


def same_outputs(*args):
    return subprocess.run([sys.executable, SAME_OUTPUTS, *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_same_outputs_help(flag):
    proc = same_outputs(flag)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: same_outputs.py")
    assert "PARENT_DIR" in proc.stdout


def test_same_outputs_needs_a_parent():
    proc = same_outputs()
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: same_outputs.py")


@pytest.mark.parametrize("parent", ["empty", "missing"])
def test_same_outputs_parent_must_be_a_checkout(tmp_path, parent):
    # Run against a tree without src/qdiode, every job would fail there and
    # be reported as a moved output.
    (tmp_path / "empty").mkdir()
    proc = same_outputs(str(tmp_path / parent), "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: same_outputs.py")
    assert "has no src/qdiode" in proc.stderr
    assert proc.stdout == ""
