"""The byte comparison of ``tools/reports.py`` and its drift listing, on report directories written under tmp_path."""

import importlib.util
import json
from pathlib import Path

import pytest

REPORTS = Path(__file__).resolve().parents[1] / "tools" / "reports.py"


@pytest.fixture(scope="module")
def reports():
    spec = importlib.util.spec_from_file_location("tools_reports", REPORTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sides(tmp_path, change: dict, parent: dict):
    """Two report directories under tmp_path, each file name mapped to its text."""
    dirs = []
    for side, files in (("change", change), ("parent", parent)):
        d = tmp_path / side
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text, encoding="utf-8")
        dirs.append(d)
    return dirs


def test_differing_lists_changed_bytes_and_one_sided_files(reports, tmp_path):
    a, b = sides(
        tmp_path,
        {"same.json": '{"v": 1}', "moved.json": '{"v": 1}', "only_change.csv": "x\n"},
        {"same.json": '{"v": 1}', "moved.json": '{"v": 1.0}', "only_parent.json": "{}"},
    )
    assert reports.differing(a, b) == ["moved.json", "only_change.csv", "only_parent.json"]
    assert reports.differing(a, a) == []


def test_numeric_drift_finds_the_largest_leaf(reports):
    a = {"value": 2.0, "history": [1.0, 4.0, 8.0], "label": "ring", "only_a": 5.0}
    b = {"value": 2.0, "history": [1.0, 5.0, 8.0], "label": "disc", "only_b": 7.0}
    rel, leaf = reports.numeric_drift(a, b)
    assert leaf == "history[1]"
    assert rel == pytest.approx(1.0 / 5.0)
    assert reports.numeric_drift({"n": [{"x": 3}]}, {"n": [{"x": -1}]}) == (pytest.approx(4 / 3), "n[0].x")


def test_numeric_drift_skips_bools_and_a_zero_scale(reports):
    # a flipped bool is no drift: the number beside it decides
    assert reports.numeric_drift({"ok": True, "v": 1.0}, {"ok": False, "v": 2.0}) == (0.5, "v")
    assert reports.numeric_drift({"ok": True}, {"ok": False}) == (0.0, None)
    assert reports.numeric_drift({"z": 0.0}, {"z": -0.0}) == (0.0, "z")
    assert reports.numeric_drift([0, 1e-16], [0, 0]) == (1.0, "[1]")


def test_describe_gives_the_drift_the_equal_numbers_or_the_name(reports, tmp_path):
    a, b = sides(
        tmp_path,
        {"cap.json": json.dumps({"value": 1.0, "steps": 6}), "ring.json": '{"value": 1.0, "note": "a"}', "d.csv": "1\n"},
        {"cap.json": json.dumps({"value": 1.5, "steps": 6}), "ring.json": '{"value": 1.0, "note": "b"}', "d.csv": "2\n"},
    )
    assert reports.describe("cap.json", a, b) == f"cap.json (largest relative difference {0.5 / 1.5:.2g} at value)"
    assert reports.describe("ring.json", a, b) == "ring.json (every number both sides hold is equal)"
    assert reports.describe("d.csv", a, b) == "d.csv"
    (b / "cap.json").unlink()
    assert reports.describe("cap.json", a, b) == "cap.json"
