"""Run the benchmark's workloads and the fine-grid ring solves, and summarise them as ``BENCH_<label>.json``.

    python3 tools/bench.py --label NAME [--parent DIR] [--runs N] [--seed S] [--root DIR]
                           [--workload W ...] [--case C ...]

Every run is one fresh process started in the checkout under test
(``--root``, by default the one holding this script).  ``--workload W``
picks one workload of ``BENCHMARK.json`` and ``--case C`` one fine case
of ``CASES``; each may be given more than once.  Naming neither runs
every workload, in the file's order, and no case; naming only cases runs
no workload.  With ``--parent DIR`` every run is a pair: the same
workload and seed, or the same case, in the parent checkout and in
``--root``, the side that goes first alternating from pair to pair, so
that slow drift of the machine falls on both sides alike.

A workload run is one untraced ``perfbench/run.py`` process of the
length that ``BENCHMARK.json`` sets; its last two stdout lines are the
record and the result.  For each workload, run i uses seed S + i.

A case is one ``solve_ring`` of the ring (1, 2) on the box [-2.5, 2.5]^n
(3D 128³ at p = 1.5 and p = 2, 2D 1024² at p = 1.5 and 2D 256² at
p = 1.05 and p = 3), in a Python process with the checkout's ``src``
first on the path.  The process prints one JSON line: the solve's wall
time (set-up included), its own peak RSS and minor page faults, the
Newton steps (``iterations``; for p = 2 the reduced CG steps) and the CG
steps of the solve, the ``repr`` of the value and its relative error
against ``ring_capacity_exact``.  The peak RSS is ``VmHWM`` of
``/proc/self/status``, the high-water mark of the process's own memory;
``ru_maxrss``, used where that file is missing, also counts the peak of
a parent that started the process by vfork.

The file lists, per workload and end-to-end metric, and per case and
``wall_s``, ``peak_rss_mb`` and ``minor_faults``, each side's samples,
median and quartiles (sides ``change`` and ``parent``, or ``runs`` alone
without a parent) and, with a parent, the number of pairs each side won
(in the metric's ``better`` direction; ties count for neither side).  A
workload also gets each side's fail fraction, its minor page faults per
run (``minor_faults``: the ``ru_minflt`` rise of ``RUSAGE_CHILDREN`` over
the run's process, with no verdict, so that a shift in allocator state
reads apart from a change in the work done) and the machine facts of its
first run.  A case also gets each side's distinct results (value,
relative error, Newton and CG steps) and, with a parent, ``same_result``:
whether both sides gave one and the same result.  With a parent each
metric with a bound in ``BENCHMARK.json`` also gets these verdicts, set
by ``compare`` (a case's minor faults get none):

- ``change_rel``: the change median over the parent median minus 1 (null
  for a parent median of 0);
- ``beyond_bound``: the change is worse than the parent by more than the
  metric's ``bound`` in ``BENCHMARK.json`` (or worse at all against a
  parent median of 0);
- ``parent_spread``: the parent's interquartile range q3 - q1;
- ``gain``: the change won at least 9 of every 10 pairs, and its median
  is better than the parent's by more than ``parent_spread``;
- ``unresolved``: ``parent_spread`` over the parent median exceeds the
  bound, so the runs cannot show a move of the bound's size, unless every
  change run is better than every parent run.

Every metric flagged beyond bound, gain or unresolved, and every case
whose results differ, is printed to stderr at the end.  Run one bench at
a time: the runs are timed, and each case holds a few hundred MB.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name: (n, p, cells per axis)
CASES = {
    "3d-128-p1.5": (3, 1.5, 128),
    "3d-128-p2": (3, 2.0, 128),
    "2d-1024-p1.5": (2, 1.5, 1024),
    "2d-256-p1.05": (2, 1.05, 256),
    "2d-256-p3": (2, 3.0, 256),
}
CASE_METRICS = ("wall_s", "peak_rss_mb", "minor_faults")

# The process of one case; argv[1] is the JSON list [n, p, cells].
CHILD = """
import json, resource, sys, time
sys.path.insert(0, "src")
from qcap.capacity import ring_capacity_exact, solve_ring
n, p, cells = json.loads(sys.argv[1])
start = time.perf_counter()
res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
wall = time.perf_counter() - start
use = resource.getrusage(resource.RUSAGE_SELF)
peak_kb = use.ru_maxrss
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
exact = ring_capacity_exact(n, p, 1.0, 2.0)
print(json.dumps({
    "samples": {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "minor_faults": use.ru_minflt},
    "result": {"value": repr(res.value), "rel_err": abs(res.value - exact) / exact,
               "iterations": res.iterations, "cg_steps": res.cg_steps, "converged": res.converged},
}))
"""


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``: metric values and minor faults (``samples``), fail counts, machine."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root,
        capture_output=True,
        text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n{proc.stderr}")
    record_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    samples = {name: m["value"] for name, m in result["metrics"].items()}
    samples["minor_faults"] = faults
    return {
        "samples": samples,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "machine": json.loads(record_line)["record"]["machine"],
    }


def run_case(root: Path, case: tuple) -> dict:
    """One fresh process of ``case`` in ``root``: its JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(list(case))], cwd=root, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"case {case} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(samples: list) -> dict:
    if len(samples) == 1:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def compare(entry: dict, metric: dict) -> None:
    """Add the pair counts and the verdicts of the module docstring to a paired metric entry."""
    change, parent = entry["change"], entry["parent"]
    # sign * value is a cost: lower is better.
    sign = 1 if metric["better"] == "lower" else -1
    pairs = list(zip(change["samples"], parent["samples"]))
    entry["change_wins"] = sum(sign * c < sign * p for c, p in pairs)
    entry["parent_wins"] = sum(sign * p < sign * c for c, p in pairs)
    if parent["median"]:
        entry["change_rel"] = change["median"] / parent["median"] - 1
        entry["beyond_bound"] = sign * entry["change_rel"] > metric["bound"]
    else:
        entry["change_rel"] = None
        entry["beyond_bound"] = sign * (change["median"] - parent["median"]) > 0
    spread = entry["parent_spread"] = parent["q3"] - parent["q1"]
    better_by = sign * (parent["median"] - change["median"])
    entry["gain"] = 10 * entry["change_wins"] >= 9 * len(pairs) and better_by > spread
    separated = max(sign * c for c in change["samples"]) < min(sign * p for p in parent["samples"])
    entry["unresolved"] = spread > metric["bound"] * abs(parent["median"]) and not separated


def flagged(entries: dict, flag: str) -> list:
    """One line per (workload or case, metric) whose paired entry has ``flag`` set."""
    return [
        f"{name} {metric}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
        + ("" if m["change_rel"] is None else f" ({m['change_rel']:+.1%})")
        + f", pairs won {m['change_wins']}/{m['parent_wins']}, parent spread {m['parent_spread']:.6g}"
        for name, e in entries.items()
        for metric, m in e["metrics"].items()
        if m.get(flag)
    ]


def alternate(roots: dict, runs: int, run, name) -> dict:
    """{side: [run(root, i) for i < runs]}, the side that goes first alternating from pair to pair."""
    outs = {side: [] for side in roots}
    sides = list(roots)
    for i in range(runs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            outs[side].append(run(roots[side], i))
            print(name, side, i, outs[side][-1]["samples"], file=sys.stderr, flush=True)
    return outs


def entries(outs: dict, metrics: list) -> dict:
    """Each metric's ``summary`` per side, with ``compare``'s verdicts given a parent and the metric's bound."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        entry = {side: summary([o["samples"][name] for o in side_outs]) for side, side_outs in outs.items()}
        if "parent" in outs and "bound" in metric:
            compare(entry, metric)
        out[name] = entry
    return out


def bench_workload(roots: dict, workload: str, runs: int, seed: int, seconds: float, metrics: list) -> dict:
    outs = alternate(roots, runs, lambda root, i: run_once(root, workload, seed + i, seconds), workload)
    return {
        "seeds": [seed + i for i in range(runs)],
        "metrics": entries(outs, metrics),
        "fail_frac": {
            side: sum(o["failed"] for o in side_outs) / sum(o["attempted"] for o in side_outs)
            for side, side_outs in outs.items()
        },
        "minor_faults": {
            side: summary([o["samples"]["minor_faults"] for o in side_outs]) for side, side_outs in outs.items()
        },
        "machine": {side: side_outs[0]["machine"] for side, side_outs in outs.items()},
    }


def bench_case(roots: dict, case: tuple, runs: int, bounds: dict) -> dict:
    outs = alternate(roots, runs, lambda root, i: run_case(root, case), case)
    results = {side: [] for side in outs}
    for side, side_outs in outs.items():
        for o in side_outs:
            if o["result"] not in results[side]:
                results[side].append(o["result"])
    metrics = [
        {"name": name, "better": "lower", "bound": bounds[name]} if name in bounds else {"name": name}
        for name in CASE_METRICS
    ]
    report = {"case": list(case), "results": results, "metrics": entries(outs, metrics)}
    if "parent" in outs:
        report["same_result"] = len(results["change"]) == 1 and results["change"] == results["parent"]
    return report


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout under test")
    parser.add_argument("--parent", type=Path, help="parent checkout, run in alternating pairs with --root")
    parser.add_argument("--runs", type=int, default=10, help="runs (or pairs) per workload or case")
    parser.add_argument("--seed", type=int, default=0, help="seed of a workload's first run; run i uses seed + i")
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w["name"] for w in bench["workloads"]],
        help="workload to run (repeatable; default: every workload, unless --case is given)",
    )
    parser.add_argument("--case", action="append", choices=list(CASES), help="fine case to run (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be at least 1 and --seed nonnegative")
    if args.parent:
        roots = {"change": args.root.resolve(), "parent": args.parent.resolve()}
    else:
        roots = {"runs": args.root.resolve()}
    metrics = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    workloads = args.workload or ([] if args.case else [w["name"] for w in bench["workloads"]])
    report = {
        "label": args.label,
        "seconds": bench["run_seconds"],
        "runs": args.runs,
        "paired": args.parent is not None,
        "workloads": {
            w["name"]: bench_workload(roots, w["name"], args.runs, args.seed, bench["run_seconds"], metrics)
            for w in bench["workloads"]
            if w["name"] in workloads
        },
        "cases": {
            name: bench_case(roots, case, args.runs, bounds)
            for name, case in CASES.items()
            if name in (args.case or ())
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out.name)
    runs = {**report["workloads"], **report["cases"]}
    for flag in ("beyond_bound", "gain", "unresolved"):
        for line in flagged(runs, flag):
            print(f"{flag.replace('_', ' ')}:", line, file=sys.stderr)
    for name, case in report["cases"].items():
        if case.get("same_result") is False:
            print(f"results differ: {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
