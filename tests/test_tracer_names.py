"""The benchmark tracer (``perfbench/spans.py``) finds every qcap name it patches."""

import importlib.util
import json
from pathlib import Path

import qcap.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_finds_every_patched_name():
    # installed() looks up each PATCHES entry by getattr, so a patched name
    # deleted from qcap fails here and not only in a traced benchmark run
    spans = _load_spans()
    names = [(mod, attr) for modules, attr, _, _ in spans.PATCHES for mod in modules]
    before = [getattr(mod, attr) for mod, attr in names]
    with spans.installed(spans.Tracer()):
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(names, before))
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(names, before))


def test_tracer_notes_read_existing_names(tmp_path):
    # each note reads result attributes (CapacityResult.history_eps,
    # .iterations ...): a traced p = 1.5 cap and a traced modulus run take
    # every note a solve and the modulus program leave, and layer_metrics
    # gives only metrics the tracer declares
    spans = _load_spans()
    grid = {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [32, 32]}
    ring = {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 2.0}
    configs = {
        "cap": {"grid": grid, "condenser": ring, "exponents": {"p": 1.5}},
        "modulus": {"grid": grid, "condenser": ring, "exponents": {"p": 2.0}, "modulus": {"curve_count": 24}},
    }
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for command, cfg in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            assert qcap.cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    metrics = spans.layer_metrics(tracer, 1.0)
    assert metrics["capacity.calls"] >= 2 and metrics["descent.mod.iterations"] > 0
    assert set(metrics) <= set(spans.METRIC_UNITS)
