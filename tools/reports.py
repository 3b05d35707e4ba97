"""Compare the ``lab-cli`` reports of this checkout with a parent checkout's, byte for byte.

    python3 tools/reports.py --parent DIR

For seeds 0 and 1, the six configs of ``perfbench/workloads.lab_configs``
(read from this checkout; ``modulus`` also sets ``"csv": true``, so that
its density CSV is compared too) and the seed's ``CAPS`` config are
written once and run through ``python -m qcap.cli <command> --config ...
--seed S`` in each checkout,
with that checkout's ``src/`` on the path and ``OPENBLAS_NUM_THREADS=1``.
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
            configs = {**lab_configs(seed), "cap": CAPS[seed]}
            configs["modulus"] = {**configs["modulus"], "csv": True}
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
