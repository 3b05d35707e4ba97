"""Experiment configuration: one schema table, its validating walk, and the builders.

A config is a JSON object whose sections feed the numeric modules:

    grid        {"n", "box": [[lo, hi], ...], "cells" | "resolution",
                 optional "region"}
    image_grid  same shape and same n as grid (distort, dual, cluster)
    condenser   {"type": "ring", "center", "r1", "r2"} or
                {"type": "regions", "e": REGION, "f": REGION}
    mapping     {"family": "identity"} |
                {"family": "affine", "matrix", "shift"} |
                {"family": "radial_power", "alpha", "center"}
    exponents   {"p", optional "q"}
    solver      optional {"max_iterations", "rel_tol", "eps"}
    modulus     {"curve_count"}
    probe       {"x0", "r_u", "r_v", "e_region": REGION, "count"}
    cluster     {"points": [[...], ...], "sequences", "depth"}
    ring        {"n", "p", "r1", "r2"}
    calibration optional {"benchmarks": [{"n","p","r1","r2","half","resolutions"}]}
    tau, seed, csv  optional scalars

REGION is {"type": "ball" | "annulus" | "box" | "sphere_shell" |
"complement" | "union" | "intersection", ...}.  ``_SCHEMA`` declares each
field of each object once, with its kind, and the builders construct
regions, mappings, solver options and benchmarks from the same entries.

``validate`` walks a config against ``_SCHEMA`` and returns human-readable
diagnostics with field paths; it never raises.  Every object reports a
missing required field, a field of the wrong kind and a key it does not
know (``<path>.<key> is not a <name> option (known: ...)``), so a
misspelled or retired option never runs at its default.  A section that
one command alone reads (ring, modulus, probe, cluster, calibration) is
checked only for that command.  Its own rules are the field kinds and the
grid's box and cell-size rules: a number is a finite JSON number (``json``
reads the literals ``NaN`` and ``Infinity``), an integer is not a boolean,
and every coordinate list has the config's one dimension n, which
``image_grid`` shares with ``grid``.  Every other range is checked by the
library function the run calls, reported as
``"<field path>: <message>"``: ``EnergyParams`` (p > 1), ``ExponentPair``
(1 < q <= p), ``check_dual_window`` (the ``dual`` window),
``check_ring_radii`` (0 < r1 < r2 in the ring section, ring condensers and
benchmarks), ``check_shell_radii`` (0 < r_v < r_u), ``check_tau``
(0 < tau < inf), and the constructors
of the regions, mappings, solver options and benchmarks.  Grids and
condensers are built only when a command runs, so their geometry errors
exit with code 4.  Builders assume a validated config.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .boundary import check_shell_radii
from .capacity import RingBenchmark, SolverOptions
from .distortion import check_tau
from .energy import EnergyParams
from .exceptions import DomainError, WindowError
from .exponents import ExponentPair, check_dual_window
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
    check_ring_radii,
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
# The sections that one command alone reads.
_OWNER = {"ring": "ring", "modulus": "modulus", "probe": "access", "cluster": "cluster", "calibration": "calibrate"}


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


# ---------------------------------------------------------------------------
# Field kinds.  kind(value, n) is None for a good value, else what the value
# must be; n is the config's one dimension, or None when no grid gives it.
# ---------------------------------------------------------------------------


def _kind(test, what):
    """A kind from test(value, n) and ``what``: a function of n, or a format of n and ``length``."""

    def kind(x, n):
        if test(x, n):
            return None
        return what(n) if callable(what) else what.format(n=n, length=f" of length {n}" if n else "")

    return kind


def _all(x, test, size=None) -> bool:
    """A list of ``size`` items (nonempty without a size), each passing ``test``."""
    return isinstance(x, list) and (len(x) == size if size else bool(x)) and all(test(v) for v in x)


_NUMBER = _kind(lambda x, n: _is_num(x), "a number")
_INTEGER = _kind(lambda x, n: _is_int(x), "an integer")
_COUNT = _kind(lambda x, n: _is_int(x, 1), "a positive integer")
_SEED = _kind(lambda x, n: _is_int(x, 0), "a nonnegative integer")
_FLAG = _kind(lambda x, n: type(x) is bool, "true or false")
_TEXT = _kind(lambda x, n: isinstance(x, str), "a string")
_DIMENSION = _kind(lambda x, n: _is_int(x, 2) and x <= 3, "2 or 3")
_POINT = _kind(_is_point, "a coordinate list{length}")
_SHIFT = _kind(lambda x, n: _is_point(x), "a coordinate list")  # sized by its matrix, which the grid sizes
_POINTS = _kind(lambda x, n: _all(x, lambda v: _is_point(v, n)), "a nonempty list of coordinate lists{length}")
_MATRIX = _kind(
    lambda x, n: isinstance(x, list) and _all(x, lambda row: _is_point(row, len(x)), n or len(x)),
    lambda n: f"{n}x{n} to act on the grid" if n else "a square matrix",
)
_BOX = _kind(lambda x, n: _all(x, lambda ax: _is_point(ax, 2) and ax[0] < ax[1], n), "{n} pairs [lo, hi] with lo < hi")
_CELLS = _kind(lambda x, n: _all(x, lambda c: _is_int(c, 1), n), "{n} positive integers")
_RESOLUTIONS = _kind(lambda x, n: _all(x, _is_int), "a nonempty list of integers")


def _grid_n(x, n):
    return _DIMENSION(x, n) or (None if n in (None, x) else f"{n} like grid.n")


# ---------------------------------------------------------------------------
# The schema.  A field's kind is a kind above, the key of a nested entry, or
# [key] for a nonempty list of such objects.
# ---------------------------------------------------------------------------


class _Context(NamedTuple):
    command: str
    n: int | None


class _Entry(NamedTuple):
    """One object: its fields, the checks validate runs on it, and its constructor.

    A check (path suffix, fields it reads or None for all, check(spec,
    context)) runs once the fields it reads are present and passed their
    kinds and every earlier check on them; validate reports its DomainError
    or WindowError.  ``make`` takes the fields as keywords, and validate
    builds the object too once every field passed.  A bad ``gate`` field
    ends the object's walk.
    """

    required: dict
    optional: dict = {}
    checks: tuple = ()
    make: Callable | None = None
    gate: str | None = None

    @property
    def fields(self) -> dict:
        return {**self.required, **self.optional}


class _Union(NamedTuple):
    """An object whose ``tag`` field picks the entry that describes it."""

    tag: str
    variants: dict


def _counts(spec: dict) -> list:
    return spec.get("cells") or [spec["resolution"]] * spec["n"]


def _grid_rules(spec: dict, ctx: _Context) -> None:
    if "cells" in spec and "resolution" in spec:
        raise DomainError("give 'cells' or 'resolution', not both")
    if "cells" not in spec and "resolution" not in spec:
        raise DomainError("needs 'cells' or 'resolution'")
    spans = [(float(hi) - lo) / c for (lo, hi), c in zip(spec["box"], _counts(spec))]
    if max(spans) - min(spans) > 1e-9 * max(spans):
        raise DomainError("cell size must be uniform across axes (adjust box or cells)")


# Without the config's dimension, the grid's own diagnostic stands in for these two.
def _exponent_pair(spec: dict, ctx: _Context) -> None:
    if ctx.n:
        ExponentPair(ctx.n, spec["p"], spec["q"])


def _dual_window(spec: dict, ctx: _Context) -> None:
    if ctx.n and ctx.command == "dual":
        check_dual_window(ExponentPair(ctx.n, spec["p"], spec["q"]))


_P_ABOVE_1 = (".p", ("p",), lambda spec, ctx: EnergyParams(spec["p"]))
_RING_RADII = ("", ("r1", "r2"), lambda spec, ctx: check_ring_radii(spec["r1"], spec["r2"]))
_RING = {"n": _DIMENSION, "p": _NUMBER, "r1": _NUMBER, "r2": _NUMBER}

_SCHEMA = {
    "config": _Entry({}, {
        "command": _TEXT, "grid": "grid", "image_grid": "grid", "condenser": "condenser", "mapping": "mapping",
        "exponents": "exponents", "solver": "solver", "modulus": "modulus", "probe": "probe", "cluster": "cluster",
        "ring": "ring", "calibration": "calibration", "tau": _NUMBER, "seed": _SEED, "csv": _FLAG,
    }, checks=(("tau", ("tau",), lambda spec, ctx: check_tau(spec["tau"])),)),
    "grid": _Entry(
        {"n": _grid_n, "box": _BOX},
        {"cells": _CELLS, "resolution": _COUNT, "region": "region"},
        checks=(("", None, _grid_rules),),
        gate="n",
    ),
    "region": _Union("type", {
        "ball": _Entry({"center": _POINT, "r": _NUMBER}, {"closed": _FLAG}, make=Ball),
        "sphere_shell": _Entry({"center": _POINT, "r": _NUMBER, "thickness": _NUMBER}, make=SphereShell),
        "annulus": _Entry({"center": _POINT, "r1": _NUMBER, "r2": _NUMBER}, make=Annulus),
        "box": _Entry({"lo": _POINT, "hi": _POINT}, make=Box),
        "complement": _Entry({"of": "region"}, make=lambda of: Complement(of)),
        "union": _Entry({"parts": ["region"]}, make=lambda parts: Union(parts)),
        "intersection": _Entry({"parts": ["region"]}, make=lambda parts: Intersection(parts)),
    }),
    "condenser": _Union("type", {
        "ring": _Entry({"center": _POINT, "r1": _NUMBER, "r2": _NUMBER}, checks=(_RING_RADII,)),
        "regions": _Entry({"e": "region", "f": "region"}),
    }),
    "mapping": _Union("family", {
        "identity": _Entry({}, make=Identity),
        "affine": _Entry({"matrix": _MATRIX, "shift": _SHIFT}, make=lambda matrix, shift: Affine(matrix, shift)),
        "radial_power": _Entry({"alpha": _NUMBER, "center": _POINT}, make=RadialPower),
    }),
    "exponents": _Entry(
        {"p": _NUMBER}, {"q": _NUMBER}, (_P_ABOVE_1, (".q", ("p", "q"), _exponent_pair), ("", ("p", "q"), _dual_window))
    ),
    "solver": _Entry({}, {"max_iterations": _INTEGER, "rel_tol": _NUMBER, "eps": _NUMBER}, make=SolverOptions),
    "modulus": _Entry({"curve_count": _COUNT}),
    "probe": _Entry(
        {"x0": _POINT, "r_u": _NUMBER, "r_v": _NUMBER, "e_region": "region", "count": _COUNT},
        checks=(("", ("r_u", "r_v"), lambda spec, ctx: check_shell_radii(spec["r_v"], spec["r_u"])),),
    ),
    "cluster": _Entry({"points": _POINTS, "sequences": _COUNT, "depth": _COUNT}),
    "ring": _Entry(_RING, checks=(_P_ABOVE_1, _RING_RADII)),
    "calibration": _Entry({}, {"benchmarks": ["benchmark"]}),
    "benchmark": _Entry(
        {**_RING, "half": _NUMBER, "resolutions": _RESOLUTIONS}, checks=(_P_ABOVE_1, _RING_RADII), make=RingBenchmark
    ),
}  # fmt: skip


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _built(check, where: str, out: list) -> bool:
    """Run ``check()``; False after reporting its DomainError or WindowError as ``where: message``."""
    try:
        check()
    except (DomainError, WindowError) as exc:
        out.append(f"{where}: {exc}")
        return False
    return True


def _field(value, kind, where: str, ctx: _Context, out: list) -> bool:
    """Check one field against its kind; True when that adds no diagnostic."""
    if isinstance(kind, str):
        return _walk(value, kind, where, ctx, out)
    if isinstance(kind, list):
        if not (isinstance(value, list) and value):
            out.append(f"{where} must be a nonempty list of {kind[0]}s")
            return False
        return all([_walk(item, kind[0], f"{where}[{i}]", ctx, out) for i, item in enumerate(value)])
    what = kind(value, ctx.n)
    if what:
        out.append(f"{where} must be {what}")
    return not what


def _walk(spec, key: str, where: str, ctx: _Context, out: list) -> bool:
    """Check ``spec`` against ``_SCHEMA[key]``; True when that adds no diagnostic."""
    start = len(out)
    entry, name, known = _SCHEMA[key], key, []
    if isinstance(entry, _Union):
        if not isinstance(spec, dict) or entry.tag not in spec:
            out.append(f"{where} must be an object with a '{entry.tag}' field")
            return False
        tag = spec[entry.tag]
        if not (isinstance(tag, str) and tag in entry.variants):
            out.append(f"{_at(where, entry.tag)} must be {' or '.join(map(repr, entry.variants))}")
            return False
        entry, name, known = entry.variants[tag], f"{tag} {key}", [entry.tag]
    elif not isinstance(spec, dict):
        out.append(f"{where} must be an object")
        return False
    fields = entry.fields
    known += fields
    article = "an" if name[0] in "aeio" else "a"
    options = f"{article} {name} option (known: {', '.join(known)})"
    out.extend(f"{_at(where, k)} is not {options}" for k in spec if k not in known)
    bad = set()
    for k, kind in fields.items():
        if k not in spec:
            if k in entry.required:
                out.append(f"{_at(where, k)} is required")
                bad.add(k)
        elif not _field(spec[k], kind, _at(where, k), ctx, out):
            bad.add(k)
            if k == entry.gate:
                return False
    made = (("", None, lambda spec, ctx: _make(spec, entry)),) if entry.make else ()
    for suffix, reads, check in entry.checks + made:
        ready = not bad if reads is None else set(reads) <= spec.keys() - bad
        if ready and not _built(lambda: check(spec, ctx), where + suffix, out):
            bad |= set(fields if reads is None else reads)
    return len(out) == start


def validate(config, command: str) -> list:
    """All schema and range diagnostics for ``command``, without running anything.

    The walk over ``_SCHEMA`` reports structure and field kinds, and the
    library's own checks report ranges.  Grids and condensers are not built.
    """
    if command not in COMMANDS:
        return [f"unknown command {command!r}"]
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    out = [f"section '{s}' is required for command '{command}'" for s in _REQUIRED[command] if s not in config]
    if out:
        return out
    grids = [config.get(key) for key in ("grid", "image_grid")]
    n = next((g["n"] for g in grids if isinstance(g, dict) and not _DIMENSION(g.get("n"), None)), None)
    read = {key: value for key, value in config.items() if _OWNER.get(key, command) == command}
    _walk(read, "config", "", _Context(command, n), out)
    exponents = config.get("exponents")
    if command in ("kcoef", "distort", "dual") and isinstance(exponents, dict) and "q" not in exponents:
        out.append(f"exponents.q is required for command '{command}'")
    return out


# ---------------------------------------------------------------------------
# Builders (assume a validated config)
# ---------------------------------------------------------------------------


def _make(spec: dict, entry: _Entry):
    """``entry.make`` on the fields of ``spec``, nested regions built first."""
    args = {}
    for key, kind in entry.fields.items():
        if key in spec:
            value = spec[key]
            if kind == "region":
                value = build_region(value)
            elif kind == ["region"]:
                value = tuple(map(build_region, value))
            args[key] = value
    return entry.make(**args)


def build_region(spec: dict):
    return _make(spec, _SCHEMA["region"].variants[spec["type"]])


def build_grid(spec: dict) -> GridDomain:
    cells = _counts(spec)
    box = spec["box"]
    h = (box[0][1] - box[0][0]) / cells[0]
    region = build_region(spec["region"]) if "region" in spec else None
    return GridDomain.box(spec["n"], tuple(lo for lo, _ in box), tuple(cells), h, region)


def build_mapping(spec: dict):
    return _make(spec, _SCHEMA["mapping"].variants[spec["family"]])


def build_condenser(spec: dict, grid: GridDomain) -> Condenser:
    if spec["type"] == "ring":
        return make_ring_condenser(tuple(spec["center"]), spec["r1"], spec["r2"], grid)
    region_e = build_region(spec["e"])
    region_f = build_region(spec["f"])
    return Condenser(rasterize(region_e, grid), rasterize(region_f, grid), grid, region_e, region_f)


def build_solver(spec: dict | None) -> SolverOptions:
    return _make(spec or {}, _SCHEMA["solver"])


def build_benchmarks(config: dict):
    benches = (config.get("calibration") or {}).get("benchmarks")
    return tuple(_make(b, _SCHEMA["benchmark"]) for b in benches) if benches else None
