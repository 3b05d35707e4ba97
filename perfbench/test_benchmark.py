"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_benchmark.py

The determinism test runs two traced runs per workload and takes a few
minutes; select it with ``-k traced``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from qcap.capacity import ring_grid  # noqa: E402
from qcap.config import validate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_the_runs_print():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == spans.METRIC_UNITS


def test_seed_zero_is_the_acceptance_setup():
    for name, cases in workloads.RING_CASES.items():
        wl = workloads.RingWorkload(name, 0, HERE)
        for case in cases:
            grid = ring_grid(case.n, case.half, case.res)
            assert tuple(wl.inputs[case.name]["origin"]) == grid.origin


@pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
def test_generated_configs_validate(seed):
    for command, cfg in workloads.lab_configs(seed).items():
        assert validate(cfg, command) == []


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=True,
    )
    record_line, result_line = proc.stdout.splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_runs_are_deterministic(workload):
    (rec_a, res_a), (rec_b, res_b) = _traced(workload, 3), _traced(workload, 3)
    assert res_a["correct"] and res_b["correct"]
    counted = [n for n, unit in spans.METRIC_UNITS.items() if unit == "count"]
    counted += ["descent.cap.f_per_iter", "capacity.oracle_gap"]
    for name in counted:
        assert res_a["metrics"][name]["value"] == res_b["metrics"][name]["value"], name
    assert rec_a["rel_err"] == rec_b["rel_err"]
