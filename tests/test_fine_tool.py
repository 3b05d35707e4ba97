"""``tools/fine.py`` on stub roots: fresh processes, paired sides, results and verdicts."""

import importlib.util
import textwrap
from pathlib import Path

FINE = Path(__file__).resolve().parents[1] / "tools" / "fine.py"
BOUNDS = {"wall_s": 0.25, "peak_rss_mb": 0.15}

STUB_CAPACITY = """
from types import SimpleNamespace

held = []


def ring_capacity_exact(n, p, r1, r2):
    return 4.0


def solve_ring(n, p, r1, r2, half, cells):
    # touch {mb} MB, page by page, and keep it until the process ends
    held.append(b"x" * ({mb} << 20))
    return SimpleNamespace(value={value}, iterations=n, cg_steps=cells, converged=True)
"""


def _load_fine():
    spec = importlib.util.spec_from_file_location("tools_fine", FINE)
    fine = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fine)
    return fine


def stub_root(path, mb, value):
    package = path / "src" / "qcap"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "capacity.py").write_text(textwrap.dedent(STUB_CAPACITY.format(mb=mb, value=value)), encoding="utf-8")
    return path


def test_fine_cases_are_the_measured_rings():
    assert _load_fine().CASES == {
        "3d-128-p1.5": (3, 1.5, 128),
        "3d-128-p2": (3, 2.0, 128),
        "2d-1024-p1.5": (2, 1.5, 1024),
        "2d-256-p1.05": (2, 1.05, 256),
    }


def test_paired_runs_record_rss_faults_and_results(tmp_path):
    # the change side's stub holds 48 MB more: every pair is a peak-RSS loss
    fine = _load_fine()
    roots = {"change": stub_root(tmp_path / "change", 56, 5.0), "parent": stub_root(tmp_path / "parent", 8, 5.0)}
    out = fine.bench_case(roots, (2, 1.5, 16), 3, BOUNDS)
    assert out["case"] == [2, 1.5, 16]
    want = {"value": "5.0", "rel_err": 0.25, "iterations": 2, "cg_steps": 16, "converged": True}
    assert out["results"] == {"change": [want], "parent": [want]}
    assert out["same_result"]
    rss = out["metrics"]["peak_rss_mb"]
    assert len(rss["change"]["samples"]) == len(rss["parent"]["samples"]) == 3
    assert min(rss["change"]["samples"]) > max(rss["parent"]["samples"]) + 30
    assert (rss["change_wins"], rss["parent_wins"]) == (0, 3) and rss["beyond_bound"] and not rss["gain"]
    assert "change_wins" in out["metrics"]["wall_s"]
    faults = out["metrics"]["minor_faults"]
    assert set(faults) == {"change", "parent"}
    assert min(faults["change"]["samples"]) > max(faults["parent"]["samples"]) + 8000


def test_differing_results_are_flagged(tmp_path):
    fine = _load_fine()
    roots = {"change": stub_root(tmp_path / "change", 1, 5.0), "parent": stub_root(tmp_path / "parent", 1, 5.5)}
    out = fine.bench_case(roots, (3, 2.0, 8), 1, BOUNDS)
    assert not out["same_result"]
    assert out["results"]["parent"][0]["value"] == "5.5"


def test_unpaired_runs_have_no_verdicts(tmp_path):
    fine = _load_fine()
    out = fine.bench_case({"runs": stub_root(tmp_path / "root", 1, 3.0)}, (2, 2.0, 8), 2, BOUNDS)
    assert "same_result" not in out
    assert set(out["metrics"]["wall_s"]) == {"runs"}
    assert out["results"]["runs"][0]["rel_err"] == 0.25
