"""Spans around qcap's public functions, recorded from outside the package.

``installed(tracer)`` replaces each function in the namespace its callers
look it up in (``qcap.capacity.energy_value``, ``qcap.modulus.minimize_projected``,
``qcap.cli.validate`` ...) by a wrapper that records a span: name, start,
end, parent span and operation id.  Spans stay in memory; ``layer_metrics``
turns one pass's spans into per-layer numbers.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans plus the uncovered remainder add up to the pass's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import qcap.boundary
import qcap.capacity
import qcap.cli
import qcap.distortion
import qcap.grid
import qcap.modulus

OP = "op"  # root span of one operation; its self time is benchmark glue
FIELDS = ["name", "start", "end", "parent", "op", "note"]  # one recorded span


def _faces(args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return len(grid.face_pairs[0])


def _iterations(args, kwargs, out):
    return out.iterations


def _sweeps(args, kwargs, out):
    return int(out.max()) + 1


def _solve(args, kwargs, out):
    grid = (args[0] if args else kwargs["cond"]).domain
    per_stage: dict = {}
    for eps in out.history_eps:
        per_stage[eps] = per_stage.get(eps, 0) + 1
    # Each stage's history holds its start value plus one entry per iteration.
    return grid.inside_count, len(grid.face_pairs[0]), [c - 1 for c in per_stage.values()]


# (modules, attribute, span name, note taken from (args, kwargs, result))
PATCHES = (
    ((qcap.grid, qcap.boundary), "connected", "grid.connected", None),
    ((qcap.capacity,), "graph_distance", "grid.graph_distance", _sweeps),
    ((qcap.grid,), "make_ring_condenser", "grid.ring_condenser", None),
    ((qcap.capacity,), "energy_value", "energy.value", _faces),
    ((qcap.capacity,), "energy_gradient", "energy.gradient", _faces),
    ((qcap.capacity,), "minimize_projected", "descent.cap", _iterations),
    ((qcap.modulus,), "minimize_projected", "descent.mod", _iterations),
    (
        (qcap.capacity, qcap.modulus, qcap.distortion, qcap.boundary, qcap.cli),
        "solve_capacity",
        "capacity",
        _solve,
    ),
    ((qcap.cli,), "check_hesse_shlyk", "modulus.check", None),
    ((qcap.modulus,), "sample_radial_curves", "modulus.sample", None),
    ((qcap.modulus,), "modulus_lower_bound", "modulus.program", None),
    ((qcap.distortion,), "pullback_condenser", "mappings.pullback", None),
    ((qcap.distortion, qcap.cli), "distortion_coefficient", "mappings.kcoef", None),
    ((qcap.cli,), "verify_capacity_inequality", "distortion.verify", None),
    ((qcap.cli,), "verify_dual_inequality", "distortion.verify", None),
    ((qcap.cli,), "sample_shell_continua", "boundary.continua", None),
    ((qcap.cli,), "probe_strong_accessibility", "boundary.probe", None),
    ((qcap.cli,), "estimate_cluster_set", "boundary.cluster", None),
    ((qcap.cli,), "load_config", "config.load", None),
    ((qcap.cli,), "validate", "config.validate", None),
    ((qcap.cli,), "build_grid", "config.build", None),
    ((qcap.cli,), "build_condenser", "config.build", None),
    ((qcap.cli,), "build_mapping", "config.build", None),
    ((qcap.cli,), "build_region", "config.build", None),
    ((qcap.cli,), "build_solver", "config.build", None),
    ((qcap.cli,), "make_report", "report.make", None),
    ((qcap.cli,), "write_json", "report.write", None),
    ((qcap.cli,), "write_csv", "report.write", None),
    ((qcap.cli,), "main", "cli.main", None),
)

SPANS = tuple(dict.fromkeys(["grid.box"] + [name for _, _, name, _ in PATCHES]))

# Spans whose inclusive time is reported as ``<name>.s`` beside ``.self_s``.
INCLUSIVE = (
    "grid.connected",
    "grid.graph_distance",
    "energy.value",
    "energy.gradient",
    "modulus.sample",
    "modulus.program",
    "mappings.pullback",
    "mappings.kcoef",
    "boundary.continua",
    "boundary.cluster",
    "config.validate",
    "report.write",
)
CALLS = ("grid.connected", "grid.graph_distance", "energy.value", "energy.gradient", "descent.cap", "capacity")
STAGES = 4

COUNTERS = (
    "grid.bfs_sweeps",
    "grid.inside_cells",
    "grid.faces",
    "descent.cap.iterations",
    "descent.mod.iterations",
) + tuple(f"capacity.iters.stage{k}" for k in range(STAGES))

# Every per-layer metric with its unit, in output order.
METRIC_UNITS = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.s": "s" for name in INCLUSIVE},
    **{f"{name}.self_s": "s" for name in SPANS},
    **{name: "count" for name in COUNTERS},
    "energy.ns_per_face": "ns",
    "descent.cap.f_per_iter": "ratio",
    "capacity.oracle_gap": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_s": "s",
    "trace.uncovered_frac": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list = []  # lists laid out as FIELDS; parent is an index
        self._stack: list = []
        self._op = -1

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[5] = note(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one operation; spans inside it share its op id."""
        self._op += 1
        rec = self._open(OP)
        rec[5] = name
        try:
            yield
        finally:
            self._close(rec)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every patched function (and ``GridDomain.box``) for the block's duration."""
    saved = []
    try:
        box = qcap.grid.GridDomain.__dict__["box"]
        saved.append((qcap.grid.GridDomain, "box", box))
        qcap.grid.GridDomain.box = classmethod(tracer.wrap("grid.box", box.__func__))
        for modules, attr, name, note in PATCHES:
            for mod in modules:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(name, fn, note))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass whose wall time was ``wall_s``."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    notes = defaultdict(list)
    for i, (name, start, end, _, _, note) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - child[i]
        if note is not None and name != OP:
            notes[name].append(note)
    unknown = set(calls) - set(SPANS) - {OP}
    if unknown:
        raise ValueError(f"spans without a layer: {sorted(unknown)}")

    solves = notes["capacity"]
    stages = [0] * STAGES
    for _, _, per_stage in solves:
        for k, its in enumerate(per_stage[:STAGES]):
            stages[k] += its
    cap_iters = sum(notes["descent.cap"])
    energy_faces = sum(notes["energy.value"]) + sum(notes["energy.gradient"])
    energy_s = incl["energy.value"] + incl["energy.gradient"]
    covered = sum(self_s[name] for name in SPANS)
    out = {
        **{f"{name}.calls": calls[name] for name in CALLS},
        **{f"{name}.s": incl[name] for name in INCLUSIVE},
        **{f"{name}.self_s": self_s[name] for name in SPANS},
        "grid.bfs_sweeps": sum(notes["grid.graph_distance"]),
        "grid.inside_cells": sum(s[0] for s in solves),
        "grid.faces": sum(s[1] for s in solves),
        "descent.cap.iterations": cap_iters,
        "descent.mod.iterations": sum(notes["descent.mod"]),
        **{f"capacity.iters.stage{k}": stages[k] for k in range(STAGES)},
        "energy.ns_per_face": 1e9 * energy_s / energy_faces if energy_faces else 0.0,
        "descent.cap.f_per_iter": calls["energy.value"] / cap_iters if cap_iters else 0.0,
        "trace.wall_s": wall_s,
        "trace.uncovered_s": wall_s - covered,
        "trace.uncovered_frac": (wall_s - covered) / wall_s,
        "trace.spans": len(spans),
    }
    return out
