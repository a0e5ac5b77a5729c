"""The README quick-start snippet runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> tuple[str, str]:
    """The quick-start Python block and the output block right after it."""
    text = README.read_text()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", section, re.S)
    assert match, "README quick start lacks a python block followed by its output"
    return match.group(1), match.group(2)


def test_quick_start_prints_what_the_readme_shows():
    code, expected = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == expected
