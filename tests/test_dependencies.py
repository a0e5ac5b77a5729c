"""The package is pure Python: no numerical runtime is imported, and the
command line starts without the stdlib modules it used only for
convenience, argparse included for the command lines it reads itself."""

import os
import subprocess
import sys
from pathlib import Path

import stabledec


def test_no_numpy_or_numba_imported():
    src = str(Path(stabledec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, stabledec, stabledec.cli; "
        "print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_no_convenience_modules_imported():
    # ``-S`` skips ``site`` and its ``.pth`` hooks, which may load any of
    # these themselves; the records are plain classes, the named tuples
    # come from ``collections`` and files are read with ``open``
    src = str(Path(stabledec.__file__).resolve().parent.parent)
    code = (
        "import sys, stabledec, stabledec.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert proc.stdout.strip() == "[]"


QUICK_START = (
    "agents: 6\n1: 12 | 13 | 1\n2: 23 | 12 | 2\n3: 34 | 13 | 23 | 3\n"
    "4: 45 | 46 | 34 | 4\n5: 56 | 45 | 5\n6: 46 | 56 | 6\n"
)
BENCHMARK_SHAPES = [
    ["analyze", "-", "--all", "--json"],
    ["verify", "-", "--decomposition", "{{12},{3},{45},{6}}", "--limit", "20000"],
]


def test_accepted_command_lines_import_no_argparse():
    # the benchmark's two command shapes are read from the declared table
    # argparse (and the gettext it imports) loads only for a command line
    # the quick reader declines, such as -h
    src = str(Path(stabledec.__file__).resolve().parent.parent)
    code = (
        "import io, sys\n"
        "from stabledec import cli\n"
        "game, out = sys.stdin.read(), sys.stdout\n"
        f"for argv in {BENCHMARK_SHAPES!r}:\n"
        "    sys.stdin, sys.stdout = io.StringIO(game), io.StringIO()\n"
        "    assert cli.main(argv) == 0\n"
        "sys.stdout = out\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        "cli.main(['analyze', '-h'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        input=QUICK_START,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[]\nusage: stabledec analyze [-h] [--absorbing]")


def test_current_backend_names_the_one_expansion():
    assert stabledec.current_backend() == "python"
