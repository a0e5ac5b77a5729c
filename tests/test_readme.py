"""The README quick-start snippet and command-line examples print what the
README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from stabledec.cli import main

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


def command_line() -> tuple[str, list[tuple[list[str], list[str]]]]:
    """The game file of the README "Command line" section, and each shown
    ``$ stabledec`` command with the lines shown after it."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", section, re.S)
    assert blocks and blocks[0].startswith("agents: "), "the section must open with the game"
    runs = []
    for block in blocks[1:]:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            runs.append((shlex.split(command), shown))
    return blocks[0], runs


def shown_lines(shown: list[str]) -> re.Pattern:
    """The shown lines in order, each ``...`` line standing for any number of
    elided lines."""
    parts = [r"(?:.*\n)*" if ln.strip() == "..." else re.escape(ln) + r"\n" for ln in shown]
    return re.compile("".join(parts))


def test_command_line_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    game, runs = command_line()
    (tmp_path / "game.txt").write_text(game)
    monkeypatch.chdir(tmp_path)
    commands = [argv[:3] for argv, _ in runs]
    assert commands == [
        ["stabledec", "analyze", "game.txt"],
        ["stabledec", "verify", "game.txt"],
        ["stabledec", "verify", "game.txt"],
        ["stabledec", "verify", "game.txt"],
    ]
    for argv, shown in runs:
        assert main(argv[1:]) == 0
        out = capsys.readouterr().out
        assert shown_lines(shown).fullmatch(out), f"{' '.join(argv)} printed:\n{out}"
