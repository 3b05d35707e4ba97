"""Compare the ``lab-cli`` reports of this checkout with a parent checkout's, byte for byte.

    python3 tools/reports.py --parent DIR

For seeds 0 and 1, the six configs of ``perfbench/workloads.lab_configs``
(read from this checkout; ``modulus`` also sets ``"csv": true``, so that
its density CSV is compared too, and ``kcoef`` takes the seed's
``KCOEF_EXPONENTS``, so that seed 1 compares the q < p integral, and
seed 1 takes ``SPREAD_CLUSTER`` for ``cluster``, so that a diameter of
more than n + 1 points is compared, ``REGIONS_DISTORT`` for
``distort``, so that a pullback of plates other than balls is compared, and
``MODULUS_3D`` for ``modulus``, so that 3D curve sampling is compared: a
24^3 ring where every curve end lands in its plate both when the sampler
looks the plates up and under the cell-center distance test it used before,
so the two samplers tie there) and
the seed's ``CAPS``, ``RINGS`` and ``CALIBRATIONS`` configs, one config for
each of the nine commands, are written once and run through ``python -m
qcap.cli <command> --config ... --seed S`` in each checkout, with that
checkout's ``src/`` on the path and ``OPENBLAS_NUM_THREADS=1``.
Every report file whose bytes differ between the two sides, or that only
one side wrote, is listed; the exit status is 1 if there is any, else 0.
For a differing JSON report the listing also gives the largest relative
difference |a - b| / max(|a|, |b|) over the numeric leaves both sides have,
and that leaf's path, so drift at the last ulp (about 1e-16) reads apart
from a changed result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1)
# Beside the modulus density, these p != 2 solves add their Newton energy
# histories as CSV.  Seed 1 masks the grid with a hole between the plates.
_GRID = {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [128, 128]}
_MASK = {
    "type": "intersection",
    "parts": [
        {"type": "ball", "center": [0, 0], "r": 2.45},
        {"type": "complement", "of": {"type": "box", "lo": [1.2, -0.3], "hi": [1.6, 0.3]}},
    ],
}
_RING = {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 2.0}
CAPS = {
    0: {"grid": _GRID, "condenser": _RING, "exponents": {"p": 1.5}, "csv": True},
    1: {"grid": {**_GRID, "region": _MASK}, "condenser": _RING, "exponents": {"p": 1.5}, "csv": True},
}
# The closed form on both branches (p != n, p = n), and small calibrations on both solver routes.
RINGS = {0: {"ring": {"n": 2, "p": 3.0, "r1": 1.0, "r2": 2.0}}, 1: {"ring": {"n": 3, "p": 3.0, "r1": 1.0, "r2": 2.0}}}
_BENCH = {"n": 2, "r1": 1.0, "r2": 2.0, "half": 2.5, "resolutions": [32, 48]}
CALIBRATIONS = {seed: {"calibration": {"benchmarks": [{**_BENCH, "p": p}]}} for seed, p in ((0, 2.0), (1, 1.5))}
# The ess-sup branch (q = p) as the benchmark runs it, and the integral branch (q < p).
KCOEF_EXPONENTS = {0: {"p": 2.0, "q": 2.0}, 1: {"p": 2.0, "q": 1.5}}

# lab-cli's cluster estimates are single points.  Here the inverse map
# stretches by 50, so the tails stay apart: the estimates hold 12, 8 and 8
# points, and the convex hull of the first has 7 vertices.
SPREAD_CLUSTER = {
    "image_grid": {
        "n": 2,
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "cells": [64, 64],
        "region": {"type": "ball", "center": [0.0, 0.0], "r": 0.9},
    },
    "mapping": {"family": "affine", "matrix": [[0.02, 0.0], [0.0, 0.02]], "shift": [0.0, 0.0]},
    "cluster": {"points": [[0.6364, 0.6364], [0.9, 0.0], [0.0, -0.9]], "sequences": 16, "depth": 4},
}

# lab-cli's modulus samples a 2D ring.  Seed 1 samples a 3D one (Fibonacci
# directions); its 200 curves join the plates under either plate rule.
MODULUS_3D = {
    "grid": {"n": 3, "box": [[-2.5, 2.5]] * 3, "cells": [24, 24, 24]},
    "condenser": {"type": "ring", "center": [0.0, 0.0, 0.0], "r1": 1.0, "r2": 2.0},
    "exponents": {"p": 2.0},
    "modulus": {"curve_count": 200},
}

# lab-cli's distort and dual pull back ring plates.  Seed 1 pulls back a
# cross of two boxes (a union) and the complement of a ball instead.
REGIONS_DISTORT = {
    "grid": {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [64, 64]},
    "image_grid": {"n": 2, "box": [[-4.5, 4.5], [-4.5, 4.5]], "cells": [64, 64]},
    "condenser": {
        "type": "regions",
        "e": {
            "type": "union",
            "parts": [
                {"type": "box", "lo": [-0.9, -0.3], "hi": [0.9, 0.3]},
                {"type": "box", "lo": [-0.3, -0.9], "hi": [0.3, 0.9]},
            ],
        },
        "f": {"type": "complement", "of": {"type": "ball", "center": [0.0, 0.0], "r": 4.0}},
    },
    "mapping": {"family": "radial_power", "alpha": 2.0, "center": [0.0, 0.0]},
    "exponents": {"p": 2.0, "q": 2.0},
}


def write_configs(configs: dict, out: Path) -> None:
    """Each config as ``<command>.json`` in ``out``."""
    out.mkdir(parents=True)
    for command, cfg in configs.items():
        (out / f"{command}.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")


def run_reports(root: Path, commands: list, seed: int, configs: Path, out: Path) -> None:
    """Each command's report in ``out``, from the checkout ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    for command in commands:
        argv = ["--config", str(configs / f"{command}.json"), "--out", str(out), "--seed", str(seed)]
        subprocess.run(
            [sys.executable, "-m", "qcap.cli", command, *argv],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            check=False,
        )


def differing(a: Path, b: Path) -> list:
    """Names of the files in either directory whose bytes differ or that the other lacks."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        name
        for name in names
        if not ((a / name).is_file() and (b / name).is_file())
        or (a / name).read_bytes() != (b / name).read_bytes()
    ]


def numeric_drift(a, b, path: str = "") -> tuple:
    """(largest relative difference, its leaf path) over the numbers both JSON values hold at the same path."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(a[k], b[k], f"{path}.{k}" if path else str(k)) for k in a if k in b]
    elif isinstance(a, list) and isinstance(b, list):
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        scale = max(abs(a), abs(b))
        return (abs(a - b) / scale if scale else 0.0), path
    else:
        return 0.0, None
    return max((numeric_drift(x, y, sub) for x, y, sub in pairs), key=lambda d: d[0], default=(0.0, None))


def describe(name: str, a: Path, b: Path) -> str:
    """``name``, with the largest numeric drift when both sides wrote it as JSON."""
    if name.endswith(".json") and (a / name).is_file() and (b / name).is_file():
        rel, leaf = numeric_drift(*(json.loads((d / name).read_text(encoding="utf-8")) for d in (a, b)))
        if rel > 0:
            return f"{name} (largest relative difference {rel:.2g} at {leaf})"
        return f"{name} (every number both sides hold is equal)"
    return name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import lab_configs

    roots = {"change": ROOT, "parent": args.parent.resolve()}
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            work = Path(tmp) / f"seed{seed}"
            configs = {**lab_configs(seed), "cap": CAPS[seed], "ring": RINGS[seed], "calibrate": CALIBRATIONS[seed]}
            if seed == 1:
                configs["cluster"] = SPREAD_CLUSTER
                configs["distort"] = REGIONS_DISTORT
                configs["modulus"] = MODULUS_3D
            configs["modulus"] = {**configs["modulus"], "csv": True}
            configs["kcoef"] = {**configs["kcoef"], "exponents": KCOEF_EXPONENTS[seed]}
            write_configs(configs, work / "configs")
            for side, root in roots.items():
                (work / side).mkdir()
                run_reports(root, list(configs), seed, work / "configs", work / side)
            names = differing(work / "change", work / "parent")
            diffs += [f"seed {seed}: {describe(name, work / 'change', work / 'parent')}" for name in names]
            print(f"seed {seed}: {len(names)} of {len(list((work / 'change').iterdir()))} reports differ", file=sys.stderr)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
