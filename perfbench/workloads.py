"""The benchmark's workloads: seeded inputs, the operations of a pass, output checks.

Every workload is a list of operations run one after another by a single
client (a closed loop with one client).  An operation calls qcap's public
functions with inputs generated from the seed and checks what comes back.

Seeds translate every grid box by a seeded whole number of cells per axis;
seed 0 translates nothing, so it reproduces the acceptance set-ups exactly.
A whole-cell translation leaves each discrete problem the same up to a
relabelling of cells, so values and capacity-solver iterations stay those
of seed 0.  Two inputs still move with the seed: lab-cli passes it to the
CLI as ``--seed`` (the access probe's continua phase), and sampled modulus
curves whose points sit exactly on cell faces round into other cells,
which moves the modulus program's iterations by a few percent.
Sub-cell shifts were measured and rejected: on the criterion-1 ring they
move the projected-BB iteration count between 468 and 853 (544 at seed 0)
and on the criterion-3 ring between 1551 and 2494, which puts the
seed-to-seed spread of the pass time far above any usable bound.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qcap.capacity
import qcap.cli
import qcap.config
import qcap.grid
from qcap.capacity import ring_capacity_exact
from qcap.energy import EnergyParams, energy_value

from oracle import p2_oracle

# A p=2 ring solve fails when its value misses the exact discrete minimizer
# by more than this relative gap.  Projected BB lands within 2e-8; the bound
# leaves room for any solver that stops at the ROADMAP's 1e-6 agreement.
ORACLE_TOL = 1e-6

# Radial-power x -> x|x| doubles the capacity quotient at p = q = 2 in 2D, so
# both sides of the distortion inequality equal this value.
DISTORT_EXACT = math.sqrt(2 * math.pi / math.log(2.0))


def max_shift(margin: float, h: float) -> int:
    """Largest whole-cell translation that keeps 1.5 cells of ``margin``.

    ``margin`` is the distance from the outermost plate or mask boundary to
    the box; the 1.5 cells keep the plate band next to the free cells inside
    the box, so the translated problem is the seed-0 problem relabelled.
    """
    return max(0, math.floor(margin / h - 1.5))


def shifts(seed: int, limits: list) -> list:
    """One integer translation vector per (n, K) pair; all zero at seed 0."""
    rng = np.random.default_rng([seed, 0x71CA9])
    out = []
    for n, k in limits:
        draw = rng.integers(-k, k + 1, size=n) if k > 0 else np.zeros(n, dtype=int)
        out.append(np.zeros(n, dtype=int) if seed == 0 else draw)
    return out


@dataclass
class OpResult:
    """Outcome of one operation in one pass."""

    name: str
    ok: bool
    reason: str
    rel_err: float | None
    rel_tol: float | None
    setup_s: float
    detail: dict
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# Ring workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingCase:
    """Concentric ring (r1, r2) in [-half, half]^n at ``res`` cells per axis.

    ``rel_tol`` is the closed-form tolerance of the output check: the
    acceptance criterion's, except for the 3D 64^3 ring, whose staircase
    plates sit 5.9% below the closed form (criterion 2 is red by design);
    there the check uses 8%, which still catches a broken solve.
    """

    name: str
    n: int
    p: float
    r1: float
    r2: float
    half: float
    res: int
    rel_tol: float

    @property
    def h(self) -> float:
        return 2 * self.half / self.res

    @property
    def limit(self) -> int:
        return max_shift(self.half - self.r2, self.h)


RING_CASES = {
    "ring-p2": (
        RingCase("crit1-2d-256", 2, 2.0, 1.0, math.e, 3.0, 256, 0.03),
        RingCase("crit2-3d-64", 3, 2.0, 1.0, 2.0, 2.5, 64, 0.08),
    ),
    "ring-p1.5": (RingCase("crit3-2d-256", 2, 1.5, 1.0, 2.0, 2.5, 256, 0.05),),
}


class RingWorkload:
    """Ring condensers solved by ``solve_capacity`` against their closed forms."""

    min_passes = 1

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.cases = RING_CASES[name]
        self.shifts = shifts(seed, [(c.n, c.limit) for c in self.cases])
        self.oracles: dict = {}
        self.inputs = {
            c.name: {"shift_cells": s.tolist(), "origin": list(self._origin(c, s))}
            for c, s in zip(self.cases, self.shifts)
        }

    @staticmethod
    def _origin(case: RingCase, shift) -> tuple:
        return tuple(-case.half + int(k) * case.h for k in shift)

    def _setup(self, case: RingCase, shift):
        grid = qcap.grid.GridDomain.box(case.n, self._origin(case, shift), (case.res,) * case.n, case.h)
        return qcap.grid.make_ring_condenser((0.0,) * case.n, case.r1, case.r2, grid)

    def setup_only(self) -> float:
        """Build every domain and condenser once; returns the seconds spent."""
        total = 0.0
        for case, shift in zip(self.cases, self.shifts):
            t0 = time.perf_counter()
            self._setup(case, shift)
            total += time.perf_counter() - t0
        return total

    def prepare(self) -> dict:
        """Solve the p=2 discrete oracles once, outside the timed passes."""
        info = {}
        for case, shift in zip(self.cases, self.shifts):
            if case.p != 2.0:
                continue
            t0 = time.perf_counter()
            cond = self._setup(case, shift)
            field, cg_iters, violation = p2_oracle(cond)
            self.oracles[case.name] = (field, cond.domain, {})
            info[case.name] = {
                "cg_iterations": cg_iters,
                "box_violation": violation,
                "seconds": time.perf_counter() - t0,
            }
        return info

    def oracle_value(self, case: RingCase, eps: float) -> float:
        """The oracle's energy at the solver's final eps (cached per eps)."""
        field, grid, values = self.oracles[case.name]
        if eps not in values:
            values[eps] = energy_value(field, grid, EnergyParams(2.0, eps))
        return values[eps]

    def operations(self) -> list:
        """(name, call) per operation of one pass, in order."""
        return [(c.name, functools.partial(self._run_case, c, s)) for c, s in zip(self.cases, self.shifts)]

    def close(self):
        pass

    def _run_case(self, case: RingCase, shift) -> OpResult:
        t0 = time.perf_counter()
        cond = self._setup(case, shift)
        setup_s = time.perf_counter() - t0
        res = qcap.capacity.solve_capacity(cond, case.p)
        exact = ring_capacity_exact(case.n, case.p, case.r1, case.r2)
        detail = {"value": res.value, "iterations": res.iterations, "converged": res.converged}
        if not math.isfinite(res.value):
            return OpResult(case.name, False, "non-finite value", None, case.rel_tol, setup_s, detail)
        rel = abs(res.value - exact) / exact
        reason = "" if res.converged else "not converged"
        if case.name in self.oracles:
            oracle = self.oracle_value(case, res.final_eps)
            gap = (res.value - oracle) / oracle
            detail["oracle_gap"] = gap
            if abs(gap) > ORACLE_TOL:
                reason = reason or f"misses the discrete oracle by {gap:+.2e}"
        return OpResult(case.name, not reason, reason, rel, case.rel_tol, setup_s, detail)


# ---------------------------------------------------------------------------
# lab-cli: six CLI commands run in-process
# ---------------------------------------------------------------------------


def lab_configs(seed: int) -> dict:
    """The six generated configs, keyed by CLI command.

    Each grid carries the margin from its outermost region boundary to the
    box, which bounds its seeded translation (see ``max_shift``).
    """
    grids = {
        # name: (n, half, cells, margin)
        "kcoef": (2, 2.0, 1024, 0.1),
        "cluster": (2, 2.2, 512, 0.2),
        "modulus": (2, 2.5, 128, 0.5),
        "access": (2, 2.2, 64, 0.3),
        "distort.source": (2, 2.5, 64, 0.5),
        "distort.image": (2, 4.5, 64, 0.5),
        "dual.source": (3, 2.5, 20, 0.7),
        "dual.image": (3, 2.5, 20, 2.5 - 1.8**1.1),
    }
    limits = [(n, max_shift(margin, 2 * half / cells)) for n, half, cells, margin in grids.values()]
    moved = dict(zip(grids, shifts(seed, limits)))

    def grid(key, region=None):
        n, half, cells, _ = grids[key]
        h = 2 * half / cells
        spec = {"n": n, "box": [[-half + k * h, half + k * h] for k in moved[key].tolist()], "cells": [cells] * n}
        if region is not None:
            spec["region"] = region
        return spec

    origin2 = [0.0, 0.0]
    b = 1.9 / math.sqrt(2)
    cluster_points = [
        [r * math.cos(2 * math.pi * k / 8 + 0.13), r * math.sin(2 * math.pi * k / 8 + 0.13)]
        for r in (2.0, 0.5)
        for k in range(8)
    ]
    return {
        "kcoef": {
            "grid": grid("kcoef", {"type": "annulus", "center": origin2, "r1": 0.5, "r2": 1.9}),
            "mapping": {"family": "radial_power", "alpha": 2.0, "center": origin2},
            "exponents": {"p": 2.0, "q": 2.0},
        },
        "cluster": {
            "image_grid": grid("cluster", {"type": "annulus", "center": origin2, "r1": 0.5, "r2": 2.0}),
            "mapping": {"family": "radial_power", "alpha": 2.0, "center": origin2},
            "cluster": {"points": cluster_points, "sequences": 6, "depth": 12},
        },
        "modulus": {
            "grid": grid("modulus"),
            "condenser": {"type": "ring", "center": origin2, "r1": 1.0, "r2": 2.0},
            "exponents": {"p": 2.0},
            "modulus": {"curve_count": 360},
        },
        "access": {
            "grid": grid("access", {"type": "ball", "center": origin2, "r": 1.9}),
            "exponents": {"p": 2.0},
            "probe": {
                "x0": [b, b],
                "r_u": 0.9,
                "r_v": 0.3,
                "e_region": {"type": "ball", "center": origin2, "r": 0.5, "closed": True},
                "count": 8,
            },
        },
        "distort": {
            "grid": grid("distort.source"),
            "image_grid": grid("distort.image"),
            "condenser": {"type": "ring", "center": origin2, "r1": 1.0, "r2": 4.0},
            "mapping": {"family": "radial_power", "alpha": 2.0, "center": origin2},
            "exponents": {"p": 2.0, "q": 2.0},
        },
        "dual": {
            "grid": grid("dual.source"),
            "image_grid": grid("dual.image"),
            "condenser": {"type": "ring", "center": [0.0, 0.0, 0.0], "r1": 0.8, "r2": 1.8},
            "mapping": {"family": "radial_power", "alpha": 1.1, "center": [0.0, 0.0, 0.0]},
            "exponents": {"p": 3.5, "q": 3.2},
        },
    }


class SetupClock:
    """Accumulates the seconds spent in the CLI's grid and condenser builders."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return timed


class LabCliWorkload:
    """``qcap.cli.main`` in-process on six generated configs."""

    # A pass takes about 8 s and varies by about 10% within one run; the
    # median of three passes damps that.
    min_passes = 3

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.configs = lab_configs(seed)
        self.inputs = self.configs
        self.paths = {}
        for command, cfg in self.configs.items():
            diagnostics = qcap.config.validate(cfg, command)
            if diagnostics:
                raise ValueError(f"generated {command} config is invalid: {diagnostics}")
            path = work_dir / f"{command}.json"
            path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
            self.paths[command] = path
        self.clock = SetupClock()
        self._restore = []
        for attr in ("build_grid", "build_condenser"):
            self._restore.append((attr, getattr(qcap.cli, attr)))
            setattr(qcap.cli, attr, self.clock.wrap(getattr(qcap.cli, attr)))

    def close(self):
        for attr, fn in self._restore:
            setattr(qcap.cli, attr, fn)

    def setup_only(self) -> float:
        """The CLI's builder calls for every config, outside the CLI."""
        t0 = time.perf_counter()
        for command, cfg in self.configs.items():
            grids = {k: qcap.config.build_grid(cfg[k]) for k in ("grid", "image_grid") if k in cfg}
            if "condenser" in cfg:
                host = grids["image_grid" if command == "distort" else "grid"]
                qcap.config.build_condenser(cfg["condenser"], host)
        return time.perf_counter() - t0

    def prepare(self) -> dict:
        return {}

    def operations(self) -> list:
        """(name, call) per operation of one pass, in order."""
        return [(c, functools.partial(self._run_command, c, p)) for c, p in self.paths.items()]

    def _run_command(self, command: str, path: Path) -> OpResult:
        out_dir = self.work_dir / "out"
        before = self.clock.seconds
        argv = [command, "--config", str(path), "--out", str(out_dir), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = qcap.cli.main(argv)
        setup_s = self.clock.seconds - before
        report = json.loads((out_dir / f"{command}_report.json").read_text(encoding="utf-8"))
        if code != 0:
            return OpResult(command, False, f"exit code {code}", None, None, setup_s, report.get("error", {}))
        reason, rel, tol, detail = CHECKS[command](report["result"])
        return OpResult(command, not reason, reason, rel, tol, setup_s, detail)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _check_kcoef(res):
    # |D phi|^2 / J = 4r^2 / 2r^2 = 2 everywhere for x -> x|x|, so K_{2,2} = sqrt 2.
    dev = abs(res["value"] - math.sqrt(2.0)) / math.sqrt(2.0) if _finite(res["value"]) else math.inf
    reason = "" if dev <= 1e-9 and res["flagged_cells"] == 0 else f"K deviates from sqrt 2 by {dev:.2e}"
    return reason, None, None, {"value": res["value"], "dev": dev}


def _check_cluster(res):
    # x -> x|x| extends continuously, so each estimate is one point at the
    # inverse image of its boundary point (criterion 8's bound 3h).
    bound = 1.5 * res["merge_radius"]
    worst = 0.0
    for est in res["estimates"]:
        if len(est["points"]) != 1:
            return f"cluster set at {est['at']} is not a singleton", None, None, est
        bx, by = est["at"]
        r = math.hypot(bx, by)
        worst = max(worst, math.dist(est["points"][0], (bx / math.sqrt(r), by / math.sqrt(r))))
    reason = "" if worst < bound else f"cluster estimate off by {worst:.4f} (bound {bound:.4f})"
    return reason, None, None, {"max_diameter": res["max_diameter"], "worst": worst}


def _check_modulus(res):
    ok = _finite(res["modulus"], res["capacity"]) and 0.0 < res["modulus"] <= res["capacity"] * 1.05
    reason = "" if ok else f"modulus {res['modulus']} outside (0, 1.05 * capacity {res['capacity']}]"
    return reason, None, None, {"modulus": res["modulus"], "capacity": res["capacity"]}


def _check_access(res):
    ok = _finite(res["delta_hat"]) and res["delta_hat"] > 0 and res["converged"]
    reason = "" if ok else f"delta_hat {res['delta_hat']} is not a positive capacity"
    return reason, None, None, {"delta_hat": res["delta_hat"]}


def _check_distort(res):
    if not _finite(res["lhs"], res["rhs"]):
        return "non-finite side", None, 0.03, res
    rel = max(abs(res["lhs"] - DISTORT_EXACT), abs(res["rhs"] - DISTORT_EXACT)) / DISTORT_EXACT
    reason = "" if res["passed"] else "inequality check did not pass"
    return reason, rel, 0.03, {"lhs": res["lhs"], "rhs": res["rhs"], "slack": res["slack"]}


def _check_dual(res):
    ok = _finite(res["lhs"], res["rhs"]) and res["passed"]
    return ("" if ok else "dual inequality check did not pass"), None, None, {"slack": res["slack"]}


CHECKS = {
    "kcoef": _check_kcoef,
    "cluster": _check_cluster,
    "modulus": _check_modulus,
    "access": _check_access,
    "distort": _check_distort,
    "dual": _check_dual,
}

WORKLOADS = {
    "ring-p2": RingWorkload,
    "ring-p1.5": RingWorkload,
    "lab-cli": LabCliWorkload,
}
