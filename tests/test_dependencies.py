"""The package is pure Python: no numerical runtime is imported."""

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


def test_current_backend_names_the_one_expansion():
    assert stabledec.current_backend() == "python"
