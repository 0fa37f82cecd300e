"""The README's library quick start runs as printed, so the docs name no
symbol the package does not export."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:4] == ["[1, 3, 4, 4, 4, 3, 1]", "3 2", "False", "True"]
    assert len(lines) == 5 and 0 < float(lines[4]) < 1e-6
