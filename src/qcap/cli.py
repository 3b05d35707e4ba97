"""Configuration-driven experiment runner.

    qcap <command> --config <path> [--out <dir>] [--seed <u64>]

Commands: cap, ring, kcoef, distort, dual, modulus, access, cluster,
calibrate.  Every run writes ``<command>_report.json`` into the output
directory (and optional CSV series when the config sets "csv": true) and
prints the report to stdout.  Exit status: 0 success, 2 validation error,
3 numerical non-convergence, 4 geometry error; failures also produce a
structured JSON error report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import estimate_cluster_set, probe_strong_accessibility, sample_shell_continua
from .capacity import DEFAULT_BENCHMARKS, calibrate_discretization, ring_capacity_exact, solve_capacity
from .config import (
    build_benchmarks,
    build_condenser,
    build_grid,
    build_mapping,
    build_region,
    build_solver,
    load_config,
    validate,
)
from .distortion import DEFAULT_TAU, verify_capacity_inequality, verify_dual_inequality
from .exceptions import (
    DegenerateError,
    DomainError,
    EmptySetError,
    GeometryError,
    SingularityError,
    WindowError,
)
from .grid import rasterize
from .mappings import distortion_coefficient
from .modulus import check_hesse_shlyk
from .report import make_report, write_csv, write_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_GEOMETRY = 4
# Exit code of each error a command may raise.
EXIT_CODES = {
    DomainError: EXIT_VALIDATION,
    WindowError: EXIT_VALIDATION,
    GeometryError: EXIT_GEOMETRY,
    EmptySetError: EXIT_GEOMETRY,
    DegenerateError: EXIT_GEOMETRY,
    SingularityError: EXIT_NONCONVERGED,
}


def _grid_desc(grid) -> dict:
    return {
        "n": grid.n,
        "h": grid.h,
        "cells": list(grid.cells),
        "origin": list(grid.origin),
        "inside_cells": grid.inside_count,
    }


def _run_cap(cfg, rng):
    grid = build_grid(cfg["grid"])
    cond = build_condenser(cfg["condenser"], grid)
    res = solve_capacity(cond, cfg["exponents"]["p"], build_solver(cfg.get("solver")))
    result = {
        "value": res.value,
        "iterations": res.iterations,
        "final_eps": res.final_eps,
        "converged": res.converged,
        "p": cfg["exponents"]["p"],
        "grid": _grid_desc(grid),
        "condenser": {
            "spec": cfg["condenser"],
            "e_cells": int(cond.E.sum()),
            "f_cells": int(cond.F.sum()),
        },
    }
    csvs = []
    if cfg.get("csv"):
        rows = list(enumerate(res.energy_history))
        csvs.append(("cap_energy_history.csv", ("iteration", "energy"), rows))
    return result, csvs, res.converged


def _run_ring(cfg, rng):
    ring = cfg["ring"]
    value = ring_capacity_exact(ring["n"], ring["p"], ring["r1"], ring["r2"])
    return {**ring, "exact": value}, [], True


def _run_kcoef(cfg, rng):
    grid = build_grid(cfg["grid"])
    p, q = cfg["exponents"]["p"], cfg["exponents"]["q"]
    k = distortion_coefficient(build_mapping(cfg["mapping"]), grid, p, q)
    result = {
        "value": k.value,
        "mode": k.mode,
        "integrand_integral": k.integrand_integral,
        "flagged_cells": k.flagged_cells,
        "p": p,
        "q": q,
        "grid": _grid_desc(grid),
    }
    return result, [], math.isfinite(k.value)


def _run_inequality(cfg, rng):
    """``distort`` checks an image condenser's pullback to the source grid;
    ``dual`` checks a source condenser's image under the inverse mapping."""
    dual = cfg["command"] == "dual"
    source = build_grid(cfg["grid"])
    image = build_grid(cfg["image_grid"])
    host, other = (source, image) if dual else (image, source)
    verify = verify_dual_inequality if dual else verify_capacity_inequality
    cond = build_condenser(cfg["condenser"], host)
    p, q = cfg["exponents"]["p"], cfg["exponents"]["q"]
    tau = cfg.get("tau", DEFAULT_TAU)
    rep = verify(build_mapping(cfg["mapping"]), cond, p, q, other, build_solver(cfg.get("solver")), tau)
    return {**asdict(rep), "rhs": rep.rhs, "p": p, "q": q, "tau": tau}, [], rep.converged


def _run_modulus(cfg, rng):
    grid = build_grid(cfg["grid"])
    cond = build_condenser(cfg["condenser"], grid)
    rep = check_hesse_shlyk(
        cond,
        cfg["exponents"]["p"],
        cfg["modulus"]["curve_count"],
        build_solver(cfg.get("solver")),
    )
    density = rep.pop("density")
    rep["grid"] = _grid_desc(grid)
    csvs = []
    if cfg.get("csv"):
        nz = np.flatnonzero(density)
        csvs.append(("modulus_density.csv", ("cell_index", "rho"), [(int(i), density[i]) for i in nz]))
    return rep, csvs, rep["converged"]


def _run_access(cfg, rng):
    grid = build_grid(cfg["grid"])
    probe = cfg["probe"]
    x0, r_u, r_v, count = probe["x0"], probe["r_u"], probe["r_v"], probe["count"]
    e_cells = rasterize(build_region(probe["e_region"]), grid)
    continua = sample_shell_continua(x0, r_u, r_v, e_cells, grid, count, rng)
    opts = build_solver(cfg.get("solver"))
    rep = probe_strong_accessibility(x0, r_u, r_v, e_cells, cfg["exponents"]["p"], continua, grid, opts)
    rep["grid"] = _grid_desc(grid)
    rep["count"] = count
    return rep, [], rep["converged"]


def _run_cluster(cfg, rng):
    image = build_grid(cfg["image_grid"])
    m_inv = build_mapping(cfg["mapping"]).inverse()
    clu = cfg["cluster"]
    estimates = []
    worst = 0.0
    for b in clu["points"]:
        est = estimate_cluster_set(m_inv, tuple(b), clu["sequences"], clu["depth"], image)
        estimates.append({"at": list(b), "points": [list(p) for p in est.points], "diameter": est.diameter})
        worst = max(worst, est.diameter)
    result = {
        "estimates": estimates,
        "max_diameter": worst,
        "merge_radius": 2 * image.h,
        "grid": _grid_desc(image),
    }
    return result, [], True


def _run_calibrate(cfg, rng):
    benches = build_benchmarks(cfg) or DEFAULT_BENCHMARKS
    rep = calibrate_discretization(benches, build_solver(cfg.get("solver")))
    ok = all(run["converged"] for run in rep["runs"])
    return rep, [], ok


_RUNNERS = {
    "cap": _run_cap,
    "ring": _run_ring,
    "kcoef": _run_kcoef,
    "distort": _run_inequality,
    "dual": _run_inequality,
    "modulus": _run_modulus,
    "access": _run_access,
    "cluster": _run_cluster,
    "calibrate": _run_calibrate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="qcap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=".", help="directory for reports (default: current)")
        cmd.add_argument("--seed", type=int, default=None, help="sampling seed (overrides config)")
    return parser


def _emit(out_dir: str, command: str, report: dict) -> None:
    path = write_json(Path(out_dir) / f"{command}_report.json", report)
    sys.stdout.write(path.read_text(encoding="utf-8"))


def _fail(args, config, code: int, kind: str, **detail) -> int:
    """Emit an error report without a result and return its exit code."""
    report = make_report(args.command, config, error={"code": code, "type": kind, **detail})
    _emit(args.out, args.command, report)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        config = {"config_path": str(args.config)}
        return _fail(args, config, EXIT_VALIDATION, type(exc).__name__, message=str(exc))

    # The seed is validated as resolved; a non-object config is reported as loaded.
    resolved = cfg
    if isinstance(cfg, dict):
        seed = cfg.get("seed", 0) if args.seed is None else args.seed
        resolved = {**cfg, "command": command, "seed": seed}
    diagnostics = validate(resolved, command)
    if diagnostics:
        return _fail(args, resolved, EXIT_VALIDATION, "validation", diagnostics=diagnostics)

    rng = np.random.default_rng(resolved["seed"])
    try:
        result, csvs, ok = _RUNNERS[command](resolved, rng)
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        return _fail(args, resolved, code, type(exc).__name__, message=str(exc))

    error = None
    code = EXIT_OK
    if not ok:
        code = EXIT_NONCONVERGED
        error = {
            "code": code,
            "type": "non_convergence",
            "message": "a numerical routine did not reach its convergence contract",
        }
    report = make_report(command, resolved, result=result, error=error)
    _emit(args.out, command, report)
    for name, header, rows in csvs:
        write_csv(Path(args.out) / name, header, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
