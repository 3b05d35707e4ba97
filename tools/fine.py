"""Run the fine-grid ring solves and summarise them as ``BENCH_fine_<label>.json``.

    python3 tools/fine.py --label NAME [--parent DIR] [--runs N] [--root DIR] [--case C ...]

Each case is one ``solve_ring`` of the ring (1, 2) on the box [-2.5, 2.5]^n
(``CASES``: 3D 128³ at p = 1.5 and p = 2, 2D 1024² at p = 1.5 and 2D 256²
at p = 1.05), run in a fresh Python process started in the checkout under
test (``--root``, by default the one holding this script) with its ``src``
first on the path.  The process prints one JSON line: the solve's wall
time (set-up included), its own peak RSS and minor page faults, the
Newton steps (``iterations``; for p = 2 the reduced CG steps) and the CG
steps of the solve, the ``repr`` of the value and its relative error
against ``ring_capacity_exact``.  The peak RSS is ``VmHWM`` of
``/proc/self/status``, the high-water mark of the process's own memory;
``ru_maxrss``, used where that file is missing, also counts the peak of
a parent that started the process by vfork.  ``--case C`` picks one case and may
be given more than once; without it every case runs.  With ``--parent DIR``
every run is a pair, the side that goes first alternating from pair to
pair, as in ``tools/bench.py``.

The file lists, per case, each side's samples, median and quartiles of
``wall_s``, ``peak_rss_mb`` and ``minor_faults`` (``tools/bench.py``'s
``summary``), and each side's distinct results (value, relative error,
Newton and CG steps).  With a parent, ``wall_s`` and ``peak_rss_mb`` get
the verdicts of ``tools/bench.py``'s ``compare`` under their bounds in
``BENCHMARK.json``, minor faults none, and ``same_result`` says whether
both sides gave one and the same result.  Each case holds a few hundred
MB: run one bench at a time.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("tools_bench", HERE / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# name: (n, p, cells per axis)
CASES = {
    "3d-128-p1.5": (3, 1.5, 128),
    "3d-128-p2": (3, 2.0, 128),
    "2d-1024-p1.5": (2, 1.5, 1024),
    "2d-256-p1.05": (2, 1.05, 256),
}

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
    "wall_s": wall,
    "peak_rss_mb": peak_kb / 1024.0,
    "minor_faults": use.ru_minflt,
    "result": {"value": repr(res.value), "rel_err": abs(res.value - exact) / exact,
               "iterations": res.iterations, "cg_steps": res.cg_steps, "converged": res.converged},
}))
"""

TIMED = ("wall_s", "peak_rss_mb", "minor_faults")


def run_case(root: Path, case: tuple) -> dict:
    """One fresh process of ``case`` in ``root``: its JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(list(case))], cwd=root, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"case {case} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def bench_case(roots: dict, case: tuple, runs: int, bounds: dict) -> dict:
    samples = {side: {name: [] for name in TIMED} for side in roots}
    results = {side: [] for side in roots}
    sides = list(roots)
    for i in range(runs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            out = run_case(roots[side], case)
            for name in TIMED:
                samples[side][name].append(out[name])
            if out["result"] not in results[side]:
                results[side].append(out["result"])
            print(case, side, i, {name: out[name] for name in TIMED}, file=sys.stderr, flush=True)
    report = {"case": list(case), "results": results, "metrics": {}}
    for name in TIMED:
        entry = {side: bench.summary(samples[side][name]) for side in sides}
        if "parent" in roots and name in bounds:
            bench.compare(entry, {"name": name, "better": "lower", "bound": bounds[name]})
        report["metrics"][name] = entry
    if "parent" in roots:
        report["same_result"] = len(results["change"]) == 1 and results["change"] == results["parent"]
    return report


def main(argv=None) -> int:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout under test")
    parser.add_argument("--parent", type=Path, help="parent checkout, run in alternating pairs with --root")
    parser.add_argument("--runs", type=int, default=5, help="runs (or pairs) per case")
    parser.add_argument(
        "--case", action="append", choices=list(CASES), help="case to run (repeatable; default: every case)"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.parent:
        roots = {"change": args.root.resolve(), "parent": args.parent.resolve()}
    else:
        roots = {"runs": args.root.resolve()}
    bounds = {m["name"]: m["bound"] for m in metrics}
    report = {
        "label": args.label,
        "runs": args.runs,
        "paired": args.parent is not None,
        "cases": {
            name: bench_case(roots, case, args.runs, bounds)
            for name, case in CASES.items()
            if args.case is None or name in args.case
        },
    }
    out = ROOT / f"BENCH_fine_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out.name)
    flags = {name: {"metrics": case["metrics"]} for name, case in report["cases"].items()}
    for flag in ("beyond_bound", "gain", "unresolved"):
        for line in bench.flagged(flags, flag):
            print(f"{flag.replace('_', ' ')}:", line, file=sys.stderr)
    for name, case in report["cases"].items():
        if case.get("same_result") is False:
            print(f"results differ: {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
