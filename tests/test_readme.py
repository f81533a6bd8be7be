"""The README's Quick start runs as written and prints what it says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
