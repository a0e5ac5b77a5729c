"""The package is pure Python: no numerical runtime is imported, and the
command line starts without the stdlib modules it used only for
convenience."""

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


def test_current_backend_names_the_one_expansion():
    assert stabledec.current_backend() == "python"
