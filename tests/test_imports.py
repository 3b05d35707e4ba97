"""What importing the package loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qcap


def scipy_modules(code: str) -> list:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter (printed last, after what ``code`` prints)."""
    code += "; import sys; print(); print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    env = {**os.environ, "PYTHONPATH": str(Path(qcap.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_ndimage_or_optimize():
    # connected() counts run-graph components with scipy.sparse.csgraph, so
    # scipy.ndimage is never needed; scipy.optimize loads on the modulus
    # dual's first use (descent.py imports it there), not at import
    loaded = scipy_modules("import qcap, qcap.cli")
    assert "scipy.sparse.csgraph" in loaded
    assert "scipy.ndimage" not in loaded
    assert "scipy.optimize" not in loaded


def test_cluster_run_loads_no_spatial(tmp_path):
    # a diameter scans every pair of points, with no convex hull from scipy.spatial;
    # the stretching inverse keeps more than n + 1 points in each estimate
    cfg = {
        "image_grid": {
            "n": 2,
            "box": [[-1.0, 1.0], [-1.0, 1.0]],
            "cells": [64, 64],
            "region": {"type": "ball", "center": [0.0, 0.0], "r": 0.9},
        },
        "mapping": {"family": "affine", "matrix": [[0.02, 0.0], [0.0, 0.02]], "shift": [0.0, 0.0]},
        "cluster": {"points": [[0.6364, 0.6364], [0.9, 0.0]], "sequences": 16, "depth": 4},
    }
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["cluster", "--config", str(path), "--out", str(tmp_path)]
    loaded = scipy_modules(f"import qcap.cli; assert qcap.cli.main({argv!r}) == 0")
    assert "scipy.spatial" not in loaded
    estimates = json.loads((tmp_path / "cluster_report.json").read_text(encoding="utf-8"))["result"]["estimates"]
    assert [len(est["points"]) for est in estimates] == [12, 8]
