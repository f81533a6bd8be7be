"""The README's Quick start runs as written and prints what it says, and
every function its prose calls is one that qdiode has."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import qdiode

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# Called in the prose but not qdiode's: numpy's svd, the NamedTuple method
# _replace, L(x), the Liouvillian as a function of the drive, and the
# standard library's gc.freeze, which the CLI calls at import.
NOT_QDIODE = {"svd", "_replace", "L", "freeze"}


def test_quick_start_prints_its_stated_output():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    stated = block.strip().splitlines()[-1]
    assert stated == "# 0.6446 0.0328 0.5821"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == stated.removeprefix("# ") + "\n"


def test_every_name_called_in_the_prose_is_a_qdiode_name():
    # A retired function the prose still calls would stay documented.
    modules = [qdiode] + [importlib.import_module(f"qdiode.{m.name}")
                          for m in pkgutil.iter_modules(qdiode.__path__)
                          if m.name != "__main__"]
    text = README.read_text(encoding="utf-8")
    called = {name.rsplit(".", 1)[-1]
              for name in re.findall(r"`([A-Za-z_][\w.]*)\(", text)}
    assert called > NOT_QDIODE
    unknown = [name for name in sorted(called - NOT_QDIODE)
               if not any(hasattr(m, name) for m in modules)]
    assert unknown == []
