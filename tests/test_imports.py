"""What importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import qcap


def test_import_loads_no_ndimage_or_optimize():
    # connected() counts run-graph components with scipy.sparse.csgraph, so
    # scipy.ndimage is never needed; scipy.optimize loads on the modulus
    # dual's first use (descent.py imports it there), not at import
    code = "import sys, qcap, qcap.cli; print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    env = {**os.environ, "PYTHONPATH": str(Path(qcap.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    loaded = proc.stdout.split()
    assert "scipy.sparse.csgraph" in loaded
    assert "scipy.ndimage" not in loaded
    assert "scipy.optimize" not in loaded
