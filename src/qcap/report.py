"""Machine-readable reports: canonical JSON plus CSV series.

Reports embed the resolved configuration and the package version and carry
no timestamps or environment state, so identical inputs produce identical
bytes (the deterministic-reduction contracts of the numeric modules do the
rest).  Non-finite numbers are emitted as null; the accompanying status
flags (converged, admissible_ok) carry the failure signal.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import __version__


def sanitize(obj):
    """Coerce numpy scalars/arrays and non-finite floats into JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def make_report(command: str, config: dict, result: dict | None = None, error: dict | None = None) -> dict:
    report = {"version": __version__, "command": command, "config": config}
    if result is not None:
        report["result"] = result
    if error is not None:
        report["error"] = error
    return report


def dump_json(report: dict) -> str:
    return json.dumps(sanitize(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, report: dict) -> str:
    text = dump_json(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return text


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([sanitize(v) for v in row])
    return path
