"""Experiment configuration: JSON schema validation and object builders.

A config is a JSON object whose sections feed the numeric modules:

    grid        {"n", "box": [[lo, hi], ...], "cells" | "resolution",
                 optional "region"}
    image_grid  same shape as grid (distort, dual, cluster)
    condenser   {"type": "ring", "center", "r1", "r2"} or
                {"type": "regions", "e": REGION, "f": REGION}
    mapping     {"family": "identity"} |
                {"family": "affine", "matrix", "shift"} |
                {"family": "radial_power", "alpha", "center"}
    exponents   {"p", optional "q"}
    solver      optional {"max_iterations", "rel_tol", "eps"}
    modulus     {"curve_count"}
    probe       {"x0", "r_u", "r_v", "e_region": REGION, "count",
                 optional "constant"}
    cluster     {"points": [[...], ...], "sequences", "depth"}
    ring        {"n", "p", "r1", "r2"}
    calibration optional {"benchmarks": [{"n","p","r1","r2","half","resolutions"}]}
    tau, seed   optional scalars

REGION is {"type": "ball" | "annulus" | "box" | "sphere_shell" |
"complement" | "union" | "intersection", ...} with the obvious parameters
("of" for complement, "parts" for union/intersection).

``validate`` returns human-readable diagnostics naming the offending
fields and never raises.  It checks structure itself and leaves ranges to
the constructors: it builds the regions, mappings, solver options and ring
benchmarks (never grids or condensers) and reports their ``DomainError``s.
A number is a finite JSON number: ``json`` reads the literals ``NaN`` and
``Infinity``, and validation rejects them.  An unknown ``solver`` key is
an error, so a misspelled or retired option never runs at its default.
Builders assume a validated config.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .capacity import RingBenchmark, SolverOptions
from .exceptions import DomainError
from .grid import (
    Annulus,
    Ball,
    Box,
    Complement,
    Condenser,
    GridDomain,
    Intersection,
    SphereShell,
    Union,
    make_ring_condenser,
    rasterize,
)
from .mappings import Affine, Identity, RadialPower

COMMANDS = ("cap", "ring", "kcoef", "distort", "dual", "modulus", "access", "cluster", "calibrate")

_REQUIRED = {
    "cap": ("grid", "condenser", "exponents"),
    "ring": ("ring",),
    "kcoef": ("grid", "mapping", "exponents"),
    "distort": ("grid", "image_grid", "condenser", "mapping", "exponents"),
    "dual": ("grid", "image_grid", "condenser", "mapping", "exponents"),
    "modulus": ("grid", "condenser", "exponents", "modulus"),
    "access": ("grid", "probe", "exponents"),
    "cluster": ("image_grid", "mapping", "cluster"),
    "calibrate": (),
}


def load_config(path) -> dict:
    with open(Path(path), encoding="utf-8") as fh:
        return json.load(fh)


def _is_num(x) -> bool:
    """A JSON number that converts to a finite float; booleans are not numbers."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _is_int(x, lo=-math.inf) -> bool:
    """A JSON integer, not a boolean, of at least ``lo``."""
    return type(x) is int and _is_num(x) and x >= lo


def _is_point(x, n=None) -> bool:
    return isinstance(x, list) and all(_is_num(v) for v in x) and (n is None or len(x) == n)


def _is_matrix(x) -> bool:
    """Rows of numbers, all of one length."""
    return isinstance(x, list) and all(_is_point(row) for row in x) and len({len(r) for r in x}) <= 1


# The fields a region type or mapping family needs before its constructor can
# run, as (coordinate lists, numbers).  The constructors check the ranges.
_REGION_FIELDS = {
    "ball": (("center",), ("r",)),
    "sphere_shell": (("center",), ("r", "thickness")),
    "annulus": (("center",), ("r1", "r2")),
    "box": (("lo", "hi"), ()),
}
_MAPPING_FIELDS = {
    "identity": ((), ()),
    "affine": (("shift",), ()),
    "radial_power": (("center",), ("alpha",)),
}


def _has_fields(spec: dict, fields, where: str, out: list, n=None) -> bool:
    points, numbers = fields
    shape = f" of length {n}" if n else ""
    bad = [f"{where}.{k} must be a coordinate list{shape}" for k in points if not _is_point(spec.get(k), n)]
    bad += [f"{where}.{k} must be a number" for k in numbers if not _is_num(spec.get(k))]
    out.extend(bad)
    return not bad


def _built(build, spec, where: str, out: list):
    """``build(spec)``, or None after reporting its DomainError as ``where: message``."""
    try:
        return build(spec)
    except DomainError as exc:
        out.append(f"{where}: {exc}")
        return None


def _check_region(spec, where: str, out: list, n=None) -> None:
    if not isinstance(spec, dict) or "type" not in spec:
        out.append(f"{where} must be an object with a 'type' field")
        return
    t = spec["type"]
    if t == "complement":
        if "of" not in spec:
            out.append(f"{where}.of is required for a complement")
        else:
            _check_region(spec["of"], f"{where}.of", out, n)
    elif t in ("union", "intersection"):
        parts = spec.get("parts")
        if not isinstance(parts, list) or not parts:
            out.append(f"{where}.parts must be a nonempty list of regions")
        else:
            for i, part in enumerate(parts):
                _check_region(part, f"{where}.parts[{i}]", out, n)
    elif not (isinstance(t, str) and t in _REGION_FIELDS):
        out.append(f"{where}.type {t!r} is not a known region type")
    elif _has_fields(spec, _REGION_FIELDS[t], where, out, n):
        _built(build_region, spec, where, out)


def _check_grid(spec, where: str, out: list):
    """Check one grid section; its dimension if that is 2 or 3, else None."""
    if not isinstance(spec, dict):
        out.append(f"{where} must be an object")
        return None
    n = spec.get("n")
    if not (_is_int(n, 2) and n <= 3):
        out.append(f"{where}.n must be 2 or 3")
        return None
    box = spec.get("box")
    if box is None:
        out.append(f"{where}.box is required ([[lo, hi], ...] per axis)")
    elif (
        not isinstance(box, list)
        or len(box) != n
        or not all(_is_point(ax, 2) and ax[0] < ax[1] for ax in box)
    ):
        out.append(f"{where}.box must be {n} pairs [lo, hi] with lo < hi")
    cells = spec.get("cells")
    res = spec.get("resolution")
    if cells is None and res is None:
        out.append(f"{where} needs 'cells' or 'resolution'")
    if cells is not None and (
        not isinstance(cells, list) or len(cells) != n or not all(_is_int(c, 1) for c in cells)
    ):
        out.append(f"{where}.cells must be {n} positive integers")
    if res is not None and not _is_int(res, 1):
        out.append(f"{where}.resolution must be a positive integer")
    if isinstance(box, list) and len(box) == n and all(_is_point(ax, 2) for ax in box):
        counts = cells if isinstance(cells, list) else [res] * n
        if len(counts) == n and all(_is_int(c, 1) for c in counts):
            spans = [(float(hi) - lo) / c for (lo, hi), c in zip(box, counts)]
            if max(spans) - min(spans) > 1e-9 * max(spans):
                out.append(f"{where} cell size must be uniform across axes (adjust box or cells)")
    if "region" in spec:
        _check_region(spec["region"], f"{where}.region", out, n)
    return n


def _check_mapping(spec, where: str, n, out: list) -> None:
    if not isinstance(spec, dict) or "family" not in spec:
        out.append(f"{where} must be an object with a 'family' field")
        return
    fam = spec["family"]
    if not (isinstance(fam, str) and fam in _MAPPING_FIELDS):
        out.append(f"{where}.family {fam!r} is not a known mapping family")
        return
    # An affine shift is sized by its matrix, and the matrix by the grid (below).
    ok = _has_fields(spec, _MAPPING_FIELDS[fam], where, out, None if fam == "affine" else n)
    if fam == "affine" and not _is_matrix(spec.get("matrix")):
        out.append(f"{where}.matrix must be a list of number rows of equal length")
        ok = False
    mapping = _built(build_mapping, spec, where, out) if ok else None
    if isinstance(mapping, Affine) and n is not None and mapping.matrix.shape[0] != n:
        out.append(f"{where}.matrix must be {n}x{n} to act on the grid")


# The optional solver fields: (key, structural check, what it asks for).
_SOLVER_FIELDS = (
    ("max_iterations", _is_int, "an integer"),
    ("rel_tol", _is_num, "a number"),
    ("eps", _is_num, "a number"),
)


def _check_solver(spec, out: list) -> None:
    if not isinstance(spec, dict):
        out.append("solver must be an object")
        return
    known = [k for k, _, _ in _SOLVER_FIELDS]
    bad = [f"solver.{k} is not a solver option (known: {', '.join(known)})" for k in spec if k not in known]
    bad += [f"solver.{k} must be {what}" for k, ok, what in _SOLVER_FIELDS if k in spec and not ok(spec[k])]
    out.extend(bad)
    if not bad:
        _built(build_solver, spec, "solver", out)


def _check_ring(spec, where: str, out: list, benchmark: bool = False) -> None:
    """The ``ring`` section or, with ``benchmark``, one calibration benchmark."""
    if not isinstance(spec, dict):
        out.append(f"{where} must be an object")
        return
    n, p, r1, r2 = (spec.get(k) for k in ("n", "p", "r1", "r2"))
    if not (_is_int(n, 2) and n <= 3):
        out.append(f"{where}.n must be 2 or 3")
    if not (_is_num(p) and p > 1):
        out.append(f"{where}.p must exceed 1")
    if not (_is_num(r1) and _is_num(r2) and 0 < r1 < r2):
        out.append(f"{where} requires 0 < r1 < r2")
    if not benchmark:
        return
    has_half = _is_num(spec.get("half"))
    if not has_half:
        out.append(f"{where}.half must be a number")
    resolutions = spec.get("resolutions")
    if not (isinstance(resolutions, list) and resolutions and all(_is_int(r, 2) for r in resolutions)):
        out.append(f"{where}.resolutions must be integers >= 2")
    elif has_half and _is_num(r2):
        _built(_build_benchmark, spec, where, out)


def validate(config, command: str) -> list:
    """All schema and range diagnostics for ``command``, without running anything.

    Structural checks (types, required fields) are made here.  Ranges are
    checked by building each region, mapping, solver option set and ring
    benchmark with the same builders the commands use; each built object
    reports its first constructor error as ``"<field path>: <message>"``.
    Grids and condensers are not built.
    """
    out: list = []
    if command not in COMMANDS:
        return [f"unknown command {command!r}"]
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    for section in _REQUIRED[command]:
        if section not in config:
            out.append(f"section '{section}' is required for command '{command}'")
    if out:
        return out

    grid_n = None
    for key in ("grid", "image_grid"):
        if key in config:
            n = _check_grid(config[key], key, out)
            grid_n = grid_n or n

    if "exponents" in config:
        exp = config["exponents"]
        if not isinstance(exp, dict) or not _is_num(exp.get("p")):
            out.append("exponents.p must be a number")
        else:
            p = exp["p"]
            if p <= 1:
                out.append("exponents.p must exceed 1")
            q = exp.get("q")
            if q is not None:
                if not _is_num(q) or q <= 1:
                    out.append("exponents.q must exceed 1")
                elif q > p:
                    out.append("exponents.q must not exceed exponents.p (need 1 < q <= p)")
            elif command in ("kcoef", "distort", "dual"):
                out.append(f"exponents.q is required for command '{command}'")

    if "condenser" in config:
        cond = config["condenser"]
        if not isinstance(cond, dict) or cond.get("type") not in ("ring", "regions"):
            out.append("condenser.type must be 'ring' or 'regions'")
        elif cond["type"] == "ring":
            r1, r2 = cond.get("r1"), cond.get("r2")
            _has_fields(cond, (("center",), ()), "condenser", out, grid_n)
            for key, r in (("r1", r1), ("r2", r2)):
                if not (_is_num(r) and r > 0):
                    out.append(f"condenser.{key} must be a positive number")
            if _is_num(r1) and _is_num(r2) and r1 >= r2:
                out.append("condenser.r1 must be smaller than condenser.r2")
        else:
            for key in ("e", "f"):
                if key not in cond:
                    out.append(f"condenser.{key} region is required")
                else:
                    _check_region(cond[key], f"condenser.{key}", out, grid_n)

    if "mapping" in config:
        _check_mapping(config["mapping"], "mapping", grid_n, out)

    if "solver" in config:
        _check_solver(config["solver"], out)

    if command == "ring":
        _check_ring(config["ring"], "ring", out)

    if command == "modulus":
        mod = config["modulus"]
        if not isinstance(mod, dict) or not _is_int(mod.get("curve_count"), 1):
            out.append("modulus.curve_count must be a positive integer")

    if command == "access":
        probe = config["probe"]
        if not isinstance(probe, dict):
            out.append("probe must be an object")
        else:
            _has_fields(probe, (("x0",), ()), "probe", out, grid_n)
            r_u, r_v = probe.get("r_u"), probe.get("r_v")
            if not (_is_num(r_u) and _is_num(r_v) and 0 < r_v < r_u):
                out.append("probe requires 0 < r_v < r_u")
            if "e_region" not in probe:
                out.append("probe.e_region is required")
            else:
                _check_region(probe["e_region"], "probe.e_region", out, grid_n)
            if not _is_int(probe.get("count"), 1):
                out.append("probe.count must be a positive integer")
            if "constant" in probe and not (_is_num(probe["constant"]) and probe["constant"] > 0):
                out.append("probe.constant must be positive")

    if command == "cluster":
        clu = config["cluster"]
        if not isinstance(clu, dict):
            out.append("cluster must be an object")
        else:
            pts = clu.get("points")
            if not isinstance(pts, list) or not pts or not all(_is_point(p) for p in pts):
                out.append("cluster.points must be a nonempty list of coordinate lists")
            for key in ("sequences", "depth"):
                if not _is_int(clu.get(key), 1):
                    out.append(f"cluster.{key} must be a positive integer")

    if command == "calibrate" and "calibration" in config:
        cal = config["calibration"]
        benches = cal.get("benchmarks") if isinstance(cal, dict) else None
        if benches is not None:
            if not isinstance(benches, list) or not benches:
                out.append("calibration.benchmarks must be a nonempty list")
            else:
                for i, b in enumerate(benches):
                    _check_ring(b, f"calibration.benchmarks[{i}]", out, benchmark=True)

    if "tau" in config and not (_is_num(config["tau"]) and config["tau"] > 0):
        out.append("tau must be a positive number")
    if "seed" in config and not _is_int(config["seed"], 0):
        out.append("seed must be a nonnegative integer")
    return out


# ---------------------------------------------------------------------------
# Builders (assume a validated config)
# ---------------------------------------------------------------------------


def build_region(spec: dict):
    t = spec["type"]
    if t == "ball":
        return Ball(tuple(spec["center"]), spec["r"], bool(spec.get("closed", False)))
    if t == "sphere_shell":
        return SphereShell(tuple(spec["center"]), spec["r"], spec["thickness"])
    if t == "annulus":
        return Annulus(tuple(spec["center"]), spec["r1"], spec["r2"])
    if t == "box":
        return Box(tuple(spec["lo"]), tuple(spec["hi"]))
    if t == "complement":
        return Complement(build_region(spec["of"]))
    if t == "union":
        return Union(tuple(build_region(s) for s in spec["parts"]))
    return Intersection(tuple(build_region(s) for s in spec["parts"]))


def build_grid(spec: dict) -> GridDomain:
    n = spec["n"]
    box = spec["box"]
    cells = spec.get("cells") or [spec["resolution"]] * n
    origin = tuple(lo for lo, _ in box)
    h = (box[0][1] - box[0][0]) / cells[0]
    region = build_region(spec["region"]) if "region" in spec else None
    return GridDomain.box(n, origin, tuple(cells), h, region)


def build_mapping(spec: dict):
    fam = spec["family"]
    if fam == "identity":
        return Identity()
    if fam == "affine":
        return Affine(tuple(map(tuple, spec["matrix"])), tuple(spec["shift"]))
    return RadialPower(spec["alpha"], tuple(spec["center"]))


def build_condenser(spec: dict, grid: GridDomain) -> Condenser:
    if spec["type"] == "ring":
        return make_ring_condenser(tuple(spec["center"]), spec["r1"], spec["r2"], grid)
    region_e = build_region(spec["e"])
    region_f = build_region(spec["f"])
    return Condenser(rasterize(region_e, grid), rasterize(region_f, grid), grid, region_e, region_f)


def build_solver(spec: dict | None) -> SolverOptions:
    spec = spec or {}
    return SolverOptions(**{key: spec[key] for key, _, _ in _SOLVER_FIELDS if key in spec})


def _build_benchmark(spec: dict) -> RingBenchmark:
    scalars = {k: spec[k] for k in ("n", "p", "r1", "r2", "half")}
    return RingBenchmark(**scalars, resolutions=tuple(spec["resolutions"]))


def build_benchmarks(config: dict):
    cal = config.get("calibration") or {}
    benches = cal.get("benchmarks")
    if not benches:
        return None
    return tuple(_build_benchmark(b) for b in benches)
