"""The paired verdicts of ``tools/bench.py`` on synthetic samples, and its workload and case runs on stub roots."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "tools" / "bench.py"
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}


def _load_bench():
    spec = importlib.util.spec_from_file_location("tools_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def paired(change, parent, metric=LOWER):
    bench = _load_bench()
    entry = {"change": bench.summary(change), "parent": bench.summary(parent)}
    bench.compare(entry, metric)
    return entry


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_clear_gain():
    entry = paired([x - 0.2 for x in PARENT], PARENT)
    assert (entry["change_wins"], entry["parent_wins"]) == (10, 0)
    assert entry["parent_spread"] == pytest.approx(1.0675 - 1.0225)
    assert entry["gain"] and not entry["unresolved"] and not entry["beyond_bound"]


def test_identical_runs_tie():
    entry = paired(list(PARENT), PARENT)
    assert (entry["change_wins"], entry["parent_wins"]) == (0, 0)
    assert entry["change_rel"] == 0.0
    assert not entry["gain"] and not entry["unresolved"] and not entry["beyond_bound"]


def test_gain_needs_nine_of_ten_pairs():
    # 8 of 10 pairs won, the median 0.2 better: no gain
    change = [x - 0.2 for x in PARENT[:8]] + [x + 0.01 for x in PARENT[8:]]
    entry = paired(change, PARENT)
    assert (entry["change_wins"], entry["parent_wins"]) == (8, 2)
    assert not entry["gain"]
    # 9 of 10 won, with the tenth a tie: a gain
    entry = paired([x - 0.2 for x in PARENT[:9]] + PARENT[9:], PARENT)
    assert (entry["change_wins"], entry["parent_wins"]) == (9, 0)
    assert entry["gain"]


def test_gain_needs_the_medians_apart_by_more_than_the_parent_spread():
    # every pair won by 0.01, inside the parent's spread of 0.045
    entry = paired([x - 0.01 for x in PARENT], PARENT)
    assert entry["change_wins"] == 10
    assert not entry["gain"] and not entry["unresolved"]


def test_wide_parent_spread_is_unresolved():
    parent = [float(x) for x in range(1, 11)]  # median 5.5, quartiles 3.25 and 7.75: spread 82% of the median
    entry = paired([x - 0.1 for x in parent], parent)
    assert entry["parent_spread"] == 4.5
    assert entry["change_wins"] == 10 and not entry["gain"]
    assert entry["unresolved"]
    # every change run better than every parent run resolves it
    entry = paired([x / 20 for x in parent], parent)
    assert entry["gain"] and not entry["unresolved"]


def test_regression_is_beyond_bound_and_no_gain():
    entry = paired([x * 1.5 for x in PARENT], PARENT)
    assert (entry["change_wins"], entry["parent_wins"]) == (0, 10)
    assert entry["change_rel"] == pytest.approx(0.5)
    assert entry["beyond_bound"] and not entry["gain"] and not entry["unresolved"]


def test_higher_is_better_turns_every_verdict():
    entry = paired([x + 0.2 for x in PARENT], PARENT, HIGHER)
    assert (entry["change_wins"], entry["parent_wins"]) == (10, 0)
    assert entry["gain"] and not entry["beyond_bound"]
    entry = paired([x * 0.5 for x in PARENT], PARENT, HIGHER)
    assert entry["parent_wins"] == 10 and entry["beyond_bound"] and not entry["gain"]


def test_flagged_lines_name_workload_and_metric():
    bench = _load_bench()
    entry = paired([x * 1.5 for x in PARENT], PARENT)
    lines = bench.flagged({"ring-p2": {"metrics": {"wall_s": entry}}}, "beyond_bound")
    assert lines == ["ring-p2 wall_s: 1.045 -> 1.5675 (+50.0%), pairs won 0/10, parent spread 0.045"]
    assert bench.flagged({"ring-p2": {"metrics": {"wall_s": entry}}}, "gain") == []


STUB_RUN = """
import json
import sys

# touch {mb} MB, page by page, before printing the record and the result lines
block = b"x" * ({mb} << 20)
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({{"record": {{"machine": {{"stub": {mb}}}}}}}))
metrics = {{name: {{"value": 0.5 + seed}} for name in {names}}}
print(json.dumps({{"metrics": metrics, "failed": 0, "attempted": 2}}))
"""


def stub_root(path, mb):
    (path / "perfbench").mkdir(parents=True)
    run = textwrap.dedent(STUB_RUN.format(mb=mb, names=list(BOUNDS)))
    (path / "perfbench" / "run.py").write_text(run, encoding="utf-8")
    return path


def test_runs_record_their_minor_page_faults(tmp_path):
    # the change side's stub touches 32 MB more, about 8192 more 4 KiB pages per run
    bench = _load_bench()
    roots = {"change": stub_root(tmp_path / "change", 40), "parent": stub_root(tmp_path / "parent", 8)}
    out = bench.bench_workload(roots, "ring-p2", 3, 5, 1.0, [LOWER])
    assert out["seeds"] == [5, 6, 7]
    assert out["metrics"]["wall_s"]["change"]["samples"] == [5.5, 6.5, 7.5]
    assert out["fail_frac"] == {"change": 0.0, "parent": 0.0}
    assert out["machine"] == {"change": {"stub": 40}, "parent": {"stub": 8}}
    faults = out["minor_faults"]
    assert set(faults) == {"change", "parent"}
    for side in faults.values():
        assert len(side["samples"]) == 3 and all(isinstance(x, int) and x > 0 for x in side["samples"])
        assert set(side) == {"median", "q1", "q3", "samples"}
    assert min(faults["change"]["samples"]) > max(faults["parent"]["samples"]) + 4000


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


def stub_solver_root(path, mb, value):
    package = path / "src" / "qcap"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "capacity.py").write_text(textwrap.dedent(STUB_CAPACITY.format(mb=mb, value=value)), encoding="utf-8")
    return path


def test_fine_cases_are_the_measured_rings():
    assert _load_bench().CASES == {
        "3d-128-p1.5": (3, 1.5, 128),
        "3d-128-p2": (3, 2.0, 128),
        "2d-1024-p1.5": (2, 1.5, 1024),
        "2d-256-p1.05": (2, 1.05, 256),
        "2d-256-p3": (2, 3.0, 256),
        "3d-64-p1.5": (3, 1.5, 64),
        "3d-20-p3.5": (3, 3.5, 20),
    }


def test_paired_runs_record_rss_faults_and_results(tmp_path):
    # the change side's stub holds 48 MB more: every pair is a peak-RSS loss
    bench = _load_bench()
    roots = {
        "change": stub_solver_root(tmp_path / "change", 56, 5.0),
        "parent": stub_solver_root(tmp_path / "parent", 8, 5.0),
    }
    out = bench.bench_case(roots, (2, 1.5, 16), 3, BOUNDS)
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
    bench = _load_bench()
    roots = {
        "change": stub_solver_root(tmp_path / "change", 1, 5.0),
        "parent": stub_solver_root(tmp_path / "parent", 1, 5.5),
    }
    out = bench.bench_case(roots, (3, 2.0, 8), 1, BOUNDS)
    assert not out["same_result"]
    assert out["results"]["parent"][0]["value"] == "5.5"


def test_unpaired_runs_have_no_verdicts(tmp_path):
    bench = _load_bench()
    out = bench.bench_case({"runs": stub_solver_root(tmp_path / "root", 1, 3.0)}, (2, 2.0, 8), 2, BOUNDS)
    assert "same_result" not in out
    assert set(out["metrics"]["wall_s"]) == {"runs"}
    assert out["results"]["runs"][0]["rel_err"] == 0.25


def test_cases_run_only_when_named_and_workloads_unless_only_cases_are(tmp_path, monkeypatch):
    # the report goes to the harness's root, here a copy holding only BENCHMARK.json
    bench = _load_bench()
    harness = tmp_path / "harness"
    harness.mkdir()
    (harness / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    monkeypatch.setattr(bench, "ROOT", harness)
    root = stub_solver_root(stub_root(tmp_path / "root", 1), 1, 3.0)

    def report(*picks):
        assert bench.main(["--label", "pick", "--root", str(root), "--runs", "1", *picks]) == 0
        out = json.loads((harness / "BENCH_pick.json").read_text(encoding="utf-8"))
        return set(out["workloads"]), set(out["cases"])

    assert report() == ({w["name"] for w in BENCHMARK["workloads"]}, set())
    assert report("--case", "3d-128-p2") == (set(), {"3d-128-p2"})
    assert report("--workload", "lab-cli") == ({"lab-cli"}, set())
    picks = ("--case", "2d-256-p1.05", "--workload", "ring-p2", "--case", "3d-128-p2")
    assert report(*picks) == ({"ring-p2"}, {"3d-128-p2", "2d-256-p1.05"})
