"""The paired verdicts of ``tools/bench.py`` on synthetic samples, and its runs on stub roots."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
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
print(json.dumps({{"metrics": {{"wall_s": {{"value": 0.5 + seed}}}}, "failed": 0, "attempted": 2}}))
"""


def stub_root(path, mb):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(textwrap.dedent(STUB_RUN.format(mb=mb)), encoding="utf-8")
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
