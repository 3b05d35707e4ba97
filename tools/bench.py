"""Run the benchmark's workloads and summarise them as ``BENCH_<label>.json``.

    python3 tools/bench.py --label NAME [--parent DIR] [--runs N] [--seed S] [--root DIR] [--workload W ...]

Each run is one untraced ``perfbench/run.py`` process of the length that
``BENCHMARK.json`` sets, started in the checkout under test (``--root``, by
default the one holding this script); its last two stdout lines are the
record and the result.  ``--workload W`` picks one workload of
``BENCHMARK.json`` and may be given more than once; without it every
workload runs, in the file's order.  For each workload, run i uses seed
S + i.  With ``--parent DIR`` every run is a pair: the same
workload and seed in the parent checkout and in ``--root``, the side that
goes first alternating from pair to pair, so that slow drift of the
machine falls on both sides alike.

The file lists, per workload and end-to-end metric, each side's samples,
median and quartiles (sides ``change`` and ``parent``, or ``runs`` alone
without a parent) and, with a parent, the number of pairs each side won
(in the metric's ``better`` direction; ties count for neither side), plus
each side's fail fraction, its minor page faults per run (``minor_faults``:
the ``ru_minflt`` rise of ``RUSAGE_CHILDREN`` over the run's process, with
no verdict, so that a shift in allocator state reads apart from a change
in the work done) and the machine facts of its first run.  With a
parent each metric also gets these verdicts, set by ``compare``:

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

Every metric flagged beyond bound, gain or unresolved is printed to
stderr at the end.  Run one bench at a time: the runs are timed.
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


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, int]:
    """One untraced benchmark run in ``root``: (record, result, minor page faults of its process)."""
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
    return json.loads(record_line)["record"], json.loads(result_line), faults


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


def flagged(workloads: dict, flag: str) -> list:
    """One line per (workload, metric) whose paired entry has ``flag`` set."""
    return [
        f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
        + ("" if m["change_rel"] is None else f" ({m['change_rel']:+.1%})")
        + f", pairs won {m['change_wins']}/{m['parent_wins']}, parent spread {m['parent_spread']:.6g}"
        for workload, w in workloads.items()
        for name, m in w["metrics"].items()
        if m.get(flag)
    ]


def bench_workload(roots: dict, workload: str, runs: int, seed: int, seconds: float, metrics: list) -> dict:
    samples = {side: {m["name"]: [] for m in metrics} for side in roots}
    failed = {side: [0, 0] for side in roots}
    faults = {side: [] for side in roots}
    machine = {}
    sides = list(roots)
    for i in range(runs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            record, result, run_faults = run_once(roots[side], workload, seed + i, seconds)
            faults[side].append(run_faults)
            for name in samples[side]:
                samples[side][name].append(result["metrics"][name]["value"])
            failed[side][0] += result["failed"]
            failed[side][1] += result["attempted"]
            machine.setdefault(side, record["machine"])
            print(workload, side, seed + i, {k: v[-1] for k, v in samples[side].items()}, file=sys.stderr, flush=True)
    out = {"seeds": [seed + i for i in range(runs)], "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        entry = {side: summary(samples[side][name]) for side in sides}
        if "parent" in roots:
            compare(entry, metric)
        out["metrics"][name] = entry
    out["fail_frac"] = {side: f / a for side, (f, a) in failed.items()}
    out["minor_faults"] = {side: summary(samples) for side, samples in faults.items()}
    out["machine"] = machine
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout under test")
    parser.add_argument("--parent", type=Path, help="parent checkout, run in alternating pairs with --root")
    parser.add_argument("--runs", type=int, default=10, help="runs (or pairs) per workload")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first run; run i uses seed + i")
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w["name"] for w in bench["workloads"]],
        help="workload to run (repeatable; default: every workload)",
    )
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be at least 1 and --seed nonnegative")
    if args.parent:
        roots = {"change": args.root.resolve(), "parent": args.parent.resolve()}
    else:
        roots = {"runs": args.root.resolve()}
    metrics = bench["end_to_end"]
    report = {
        "label": args.label,
        "seconds": bench["run_seconds"],
        "runs": args.runs,
        "paired": args.parent is not None,
        "workloads": {
            w["name"]: bench_workload(roots, w["name"], args.runs, args.seed, bench["run_seconds"], metrics)
            for w in bench["workloads"]
            if args.workload is None or w["name"] in args.workload
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out.name)
    for flag in ("beyond_bound", "gain", "unresolved"):
        for line in flagged(report["workloads"], flag):
            print(f"{flag.replace('_', ' ')}:", line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
