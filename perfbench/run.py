"""qcap benchmark: time to a checked capacity, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qcap is imported from ``src/``.  Workloads
(see ``workloads.py``): ``ring-p2``, ``ring-p1.5``, ``lab-cli``.

One process runs one workload as a closed loop with one client:

1. builds every domain and condenser a few times (set-up samples);
2. solves the p=2 discrete oracles (untimed);
3. runs timed passes, each every operation once, until ``--seconds`` have
   passed and the workload's ``min_passes`` untraced passes are done.
   With ``--trace 1`` the passes alternate untraced and traced, at least
   one of each, and the traced ones record spans (``spans.py``).

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json untraced, the
per-layer ones traced.  The line before it is ``{"record": ...}`` with
every pass's raw times and outputs, the inputs and the machine facts.
A traced run also writes its spans to ``perfbench/work/spans-*.json``.
Failed operations count in ``failed``; the fail fraction is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only builds before the passes: up to SETUP_REPS of them, stopping
# once SETUP_BUDGET_S has been spent (one build of lab-cli takes about 3.5 s).
SETUP_REPS = 5
SETUP_BUDGET_S = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ring-p2", "ring-p1.5", "lab-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _blas_threads():
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run_pass(wl, tracer):
    """One pass of every operation; exceptions count as failed operations."""
    import spans
    from workloads import OpResult

    ops = []
    installed = spans.installed(tracer) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with installed:
        for name, call in wl.operations():
            with tracer.operation(name) if tracer else contextlib.nullcontext():
                t_op = time.perf_counter()
                try:
                    op = call()
                except Exception as exc:  # the benchmark reports the failure and goes on
                    tb = traceback.format_exc()
                    op = OpResult(name, False, f"{type(exc).__name__}: {exc}", None, None, 0.0, {"traceback": tb})
                op.seconds = time.perf_counter() - t_op
                ops.append(op)
    wall = time.perf_counter() - t0
    return {"traced": tracer is not None, "wall_s": wall, "setup_s": sum(o.setup_s for o in ops), "ops": ops}


def measure(args, work_dir: Path) -> tuple[dict, dict]:
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.workload, args.seed, work_dir)
    try:
        setup_samples = [wl.setup_only()]
        while len(setup_samples) < SETUP_REPS and sum(setup_samples) < SETUP_BUDGET_S:
            setup_samples.append(wl.setup_only())
        oracle = wl.prepare()
        passes = []
        layers = []
        traces = []
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = spans.Tracer() if traced else None
            p = run_pass(wl, tracer)
            passes.append(p)
            if tracer:
                layers.append((p, spans.layer_metrics(tracer, p["wall_s"])))
                traces.append(tracer.spans)
            kinds = {q["traced"] for q in passes}
            plain = sum(not q["traced"] for q in passes)
            done = time.perf_counter() - t_start >= args.seconds and plain >= wl.min_passes
            if done and len(kinds) == 1 + args.trace:
                break
    finally:
        wl.close()

    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    wall_s = statistics.median(walls)
    setup_all = setup_samples + [p["setup_s"] for p in plain]
    setup_s = statistics.median(setup_all)
    all_ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op.ok for op in all_ops)
    rel_err = max((op.rel_err for p in plain for op in p["ops"] if op.rel_err is not None), default=0.0)
    correct = failed == 0 and all(op.rel_err <= op.rel_tol for op in all_ops if op.rel_err is not None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        per_pass = []
        for p, m in layers:
            gaps = [abs(op.detail["oracle_gap"]) for op in p["ops"] if "oracle_gap" in op.detail]
            m["capacity.oracle_gap"] = max(gaps, default=0.0)
            m["trace.overhead_frac"] = p["wall_s"] / wall_s - 1.0
            per_pass.append(m)
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
            for name, unit in spans.METRIC_UNITS.items()
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "rel_err": {"value": rel_err, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.inputs,
        "oracle": oracle,
        "wall_s": {"median": wall_s, "n": len(walls), "samples": walls},
        "setup_s": {"median": setup_s, "n": len(setup_all), "samples": setup_all},
        "rel_err": rel_err,
        "fail_frac": failed / len(all_ops),
        "peak_rss_mb": rss_mb,
        "passes": [{**p, "ops": [asdict(op) for op in p["ops"]]} for p in passes],
        "layers": [m for _, m in layers],
    }
    if traces:
        spans_file = work_dir.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": spans.FIELDS, "passes": traces}), encoding="utf-8")
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    result = {"correct": correct, "attempted": len(all_ops), "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qcap" / "__init__.py").is_file():
        print(f"qcap sources not found under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    # The solvers' BLAS calls are vector dot products that gain nothing from
    # a second thread; a threaded call waits for a worker to be scheduled,
    # so any other load on the machine stretched such runs several-fold.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    facts = machine_facts()
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        record, result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["machine"] = facts
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
