"""Config validation through the constructors: field paths, integer fields, robustness."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcap.cli import main
from qcap.config import validate

GRID2 = {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [16, 16]}
RING_COND = {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 2.0}
GRID3 = {"n": 3, "box": [[-2.5, 2.5]] * 3, "cells": [10, 10, 10]}

# One valid config per command that has sections to vary.
BASE = {
    "cap": {"grid": GRID2, "condenser": RING_COND, "exponents": {"p": 2.0}},
    "kcoef": {"grid": GRID2, "mapping": {"family": "identity"}, "exponents": {"p": 2.0, "q": 2.0}},
    # The dual window n < q <= p < (n-1)^2/(n-2) is empty in 2D.
    "dual": {
        "grid": GRID3,
        "image_grid": GRID3,
        "condenser": {"type": "ring", "center": [0.0, 0.0, 0.0], "r1": 0.8, "r2": 1.8},
        "mapping": {"family": "identity"},
        "exponents": {"p": 3.5, "q": 3.2},
    },
    "modulus": {
        "grid": GRID2,
        "condenser": RING_COND,
        "exponents": {"p": 2.0},
        "modulus": {"curve_count": 8},
    },
    "access": {
        "grid": GRID2,
        "exponents": {"p": 2.0},
        "probe": {
            "x0": [1.0, 0.0],
            "r_u": 0.6,
            "r_v": 0.2,
            "e_region": {"type": "ball", "center": [0, 0], "r": 0.5},
            "count": 4,
        },
    },
    "cluster": {
        "image_grid": GRID2,
        "mapping": {"family": "identity"},
        "cluster": {"points": [[2.0, 0.0]], "sequences": 2, "depth": 3},
    },
    "calibrate": {
        "calibration": {
            "benchmarks": [{"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0, "half": 2.5, "resolutions": [8]}]
        }
    },
}


def with_section(command, section, value):
    cfg = json.loads(json.dumps(BASE[command]))
    cfg[section] = value
    return cfg


def test_base_configs_validate():
    for command, cfg in BASE.items():
        assert validate(cfg, command) == [], command


# ------------------------------------------------------- integer fields


def test_booleans_are_not_integers():
    grid = dict(GRID2, cells=[True, True])
    assert any("grid.cells" in d for d in validate(with_section("cap", "grid", grid), "cap"))
    cfg = with_section("cap", "solver", {"max_iterations": True})
    assert validate(cfg, "cap") == ["solver.max_iterations must be an integer"]
    cfg = with_section("cap", "seed", True)
    assert validate(cfg, "cap") == ["seed must be a nonnegative integer"]


def test_integer_fields_reject_floats_and_bools():
    cfg = with_section("cluster", "cluster", {"points": [[2.0, 0.0]], "sequences": 2.0, "depth": False})
    diags = validate(cfg, "cluster")
    assert any("sequences" in d for d in diags) and any("depth" in d for d in diags)
    grid = {"n": 2.0, "box": GRID2["box"], "resolution": 16}
    assert validate(with_section("cap", "grid", grid), "cap") == ["grid.n must be 2 or 3"]


# ------------------------------------------------------- range errors carry the field path


def test_singular_affine_matrix_is_a_validation_error():
    mapping = {"family": "affine", "matrix": [[1.0, 2.0], [2.0, 4.0]], "shift": [0.0, 0.0]}
    cfg = with_section("kcoef", "mapping", mapping)
    assert validate(cfg, "kcoef") == ["mapping: affine matrix must be nonsingular"]


def test_cli_reports_singular_affine_as_validation(tmp_path, capsys):
    mapping = {"family": "affine", "matrix": [[1.0, 2.0], [2.0, 4.0]], "shift": [0.0, 0.0]}
    path = tmp_path / "kcoef.json"
    path.write_text(json.dumps(with_section("kcoef", "mapping", mapping)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["kcoef", "--config", str(path), "--out", str(out)]) == 2
    error = json.loads((out / "kcoef_report.json").read_text())["error"]
    assert error["type"] == "validation"
    assert error["diagnostics"] == ["mapping: affine matrix must be nonsingular"]
    capsys.readouterr()


def test_nested_region_error_carries_its_path():
    cond = {
        "type": "regions",
        "e": {
            "type": "union",
            "parts": [
                {"type": "ball", "center": [0, 0], "r": 0.5},
                {"type": "annulus", "center": [0, 0], "r1": 2.0, "r2": 1.0},
            ],
        },
        "f": {"type": "complement", "of": {"type": "ball", "center": [0, 0], "r": -1.0}},
    }
    diags = validate(with_section("cap", "condenser", cond), "cap")
    assert len(diags) == 2
    assert diags[0].startswith("condenser.e.parts[1]: annulus requires 0 <= r1 < r2")
    assert diags[1].startswith("condenser.f.of: ball radius must be >= 0")


def test_each_built_object_reports_its_first_error():
    cfg = with_section("cap", "solver", {"max_iterations": 0, "rel_tol": -1.0})
    assert validate(cfg, "cap") == ["solver: max_iterations must be at least 1"]


def test_benchmark_half_comes_from_ring_benchmark():
    bench = {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0, "half": 1.5, "resolutions": [8]}
    cfg = with_section("calibrate", "calibration", {"benchmarks": [bench]})
    assert validate(cfg, "calibrate") == [
        "calibration.benchmarks[0]: benchmark box must contain the outer sphere"
    ]


@pytest.mark.parametrize(
    "resolutions, diagnostic",
    [
        ([1], "calibration.benchmarks[0]: benchmark needs resolutions, each >= 2, got [1]"),
        ([8, 0], "calibration.benchmarks[0]: benchmark needs resolutions, each >= 2, got [8, 0]"),
        ([], "calibration.benchmarks[0].resolutions must be a nonempty list of integers"),
        ([8.0], "calibration.benchmarks[0].resolutions must be a nonempty list of integers"),
    ],
)
def test_benchmark_resolutions_come_from_ring_benchmark(resolutions, diagnostic):
    # the config checks the list's shape, RingBenchmark the range of its entries
    bench = {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0, "half": 2.5, "resolutions": resolutions}
    cfg = with_section("calibrate", "calibration", {"benchmarks": [bench]})
    assert validate(cfg, "calibrate") == [diagnostic]


@pytest.mark.parametrize("tau", [0, -1])
def test_tau_range_comes_from_check_tau(tau):
    # the config checks that tau is a number, check_tau (which the
    # inequality checks call) the range 0 < tau < inf
    cfg = with_section("dual", "tau", tau)
    assert validate(cfg, "dual") == [f"tau: tau must be positive and finite, got {tau}"]


def test_bad_image_grid_n_gives_one_diagnostic():
    mapping = {"family": "affine", "matrix": [[2.0, 0.0], [0.0, 1.0]], "shift": [0.0, 0.0]}
    cfg = with_section("cluster", "mapping", mapping)
    cfg["image_grid"] = dict(GRID2, n=4)
    assert validate(cfg, "cluster") == ["image_grid.n must be 2 or 3"]


def test_affine_dimension_must_match_the_grid():
    mapping = {"family": "affine", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "shift": [0, 0, 0]}
    diags = validate(with_section("kcoef", "mapping", mapping), "kcoef")
    assert diags == ["mapping.matrix must be 2x2 to act on the grid"]


def test_points_must_match_the_grid_dimension(tmp_path, capsys):
    point3 = [0.0, 0.0, 0.0]
    cases = [
        ("cap", "grid", dict(GRID2, region={"type": "ball", "center": point3, "r": 2.4}), "grid.region.center"),
        ("cap", "condenser", {"type": "ring", "center": point3, "r1": 1.0, "r2": 2.0}, "condenser.center"),
        ("kcoef", "mapping", {"family": "radial_power", "alpha": 2.0, "center": point3}, "mapping.center"),
        ("access", "probe", dict(BASE["access"]["probe"], x0=point3), "probe.x0"),
    ]
    for command, section, value, where in cases:
        cfg = with_section(command, section, value)
        assert validate(cfg, command) == [f"{where} must be a coordinate list of length 2"], where
    # the CLI stops at validation with exit 2 instead of failing inside numpy
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(with_section(*cases[0][:3])), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cap", "--config", str(path), "--out", str(out)]) == 2
    error = json.loads((out / "cap_report.json").read_text())["error"]
    assert error["type"] == "validation"
    assert error["diagnostics"] == ["grid.region.center must be a coordinate list of length 2"]
    capsys.readouterr()


def test_grids_share_the_dimension(tmp_path, capsys):
    # a 3D image grid beside a 2D grid used to validate and fail inside the run
    cfg = with_section("dual", "grid", GRID2)
    cfg["condenser"] = RING_COND
    assert validate(cfg, "distort") == ["image_grid.n must be 2 like grid.n"]
    path = tmp_path / "distort.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["distort", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    error = json.loads((tmp_path / "out" / "distort_report.json").read_text())["error"]
    assert error["type"] == "validation"
    assert error["diagnostics"] == ["image_grid.n must be 2 like grid.n"]
    points = {"points": [[2.0, 0.0, 0.0]], "sequences": 2, "depth": 3}
    assert validate(with_section("cluster", "cluster", points), "cluster") == [
        "cluster.points must be a nonempty list of coordinate lists of length 2"
    ]
    capsys.readouterr()


def test_grid_takes_cells_or_resolution_not_both(tmp_path, capsys):
    # both keys used to validate, and the grid silently took 'cells'
    both = dict(GRID2, resolution=64)
    assert validate(with_section("cap", "grid", both), "cap") == ["grid: give 'cells' or 'resolution', not both"]
    cfg = with_section("cluster", "image_grid", both)
    assert validate(cfg, "cluster") == ["image_grid: give 'cells' or 'resolution', not both"]
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["cluster", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    error = json.loads((tmp_path / "out" / "cluster_report.json").read_text())["error"]
    assert error["type"] == "validation"
    assert error["diagnostics"] == ["image_grid: give 'cells' or 'resolution', not both"]
    capsys.readouterr()


# ------------------------------------------------------- unknown keys

BALL = {"type": "ball", "center": [0.0, 0.0], "r": 2.4}
REGIONS = {
    "ball": BALL,
    "sphere_shell": {"type": "sphere_shell", "center": [0.0, 0.0], "r": 1.0, "thickness": 0.5},
    "annulus": {"type": "annulus", "center": [0.0, 0.0], "r1": 0.5, "r2": 2.4},
    "box": {"type": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
    "complement": {"type": "complement", "of": {"type": "ball", "center": [0.0, 0.0], "r": 0.1}},
    "union": {"type": "union", "parts": [BALL]},
    "intersection": {"type": "intersection", "parts": [BALL]},
}
MAPPINGS = {
    "identity": {"family": "identity"},
    "affine": {"family": "affine", "matrix": [[2.0, 0.0], [0.0, 1.0]], "shift": [0.0, 0.0]},
    "radial_power": {"family": "radial_power", "alpha": 2.0, "center": [0.0, 0.0]},
}
REGIONS_COND = {"type": "regions", "e": {**BALL, "r": 0.5}, "f": REGIONS["complement"]}

# (command, config, path of the object that gets the unknown key, its schema name)
OBJECTS = {
    "top level": ("cap", BASE["cap"], (), "config"),
    "grid": ("cap", BASE["cap"], ("grid",), "grid"),
    "image_grid": ("cluster", BASE["cluster"], ("image_grid",), "grid"),
    **{
        f"region {t}": ("cap", with_section("cap", "grid", dict(GRID2, region=r)), ("grid", "region"), f"{t} region")
        for t, r in REGIONS.items()
    },
    **{f"mapping {f}": ("kcoef", with_section("kcoef", "mapping", m), ("mapping",), f"{f} mapping") for f, m in MAPPINGS.items()},
    "condenser ring": ("cap", BASE["cap"], ("condenser",), "ring condenser"),
    "condenser regions": ("cap", with_section("cap", "condenser", REGIONS_COND), ("condenser",), "regions condenser"),
    "exponents": ("cap", BASE["cap"], ("exponents",), "exponents"),
    "solver": ("cap", with_section("cap", "solver", {"eps": 1e-4}), ("solver",), "solver"),
    "modulus": ("modulus", BASE["modulus"], ("modulus",), "modulus"),
    "probe": ("access", BASE["access"], ("probe",), "probe"),
    "cluster": ("cluster", BASE["cluster"], ("cluster",), "cluster"),
    "ring": ("ring", {"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0}}, ("ring",), "ring"),
    "calibration": ("calibrate", BASE["calibrate"], ("calibration",), "calibration"),
    "benchmark": ("calibrate", BASE["calibrate"], ("calibration", "benchmarks", 0), "benchmark"),
}


@pytest.mark.parametrize("obj", list(OBJECTS))
def test_every_object_rejects_an_unknown_key(obj):
    command, base, path, name = OBJECTS[obj]
    cfg = json.loads(json.dumps(base))
    assert validate(cfg, command) == []
    target = cfg
    for key in path:
        target = target[key]
    target["bogus"] = 1
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    diags = validate(cfg, command)
    assert len(diags) == 1
    article = "an" if name[0] in "aeio" else "a"
    assert diags[0].startswith(f"{where + '.' if where else ''}bogus is not {article} {name} option (known: ")


TYPOS = [
    ("cap", "grid", dict(GRID2, regoin=BALL), "grid.regoin is not a grid option (known: n, box, cells, resolution, region)"),
    (
        "cap",
        "grid",
        dict(GRID2, region={**BALL, "clsoed": True}),
        "grid.region.clsoed is not a ball region option (known: type, center, r, closed)",
    ),
    (
        "access",
        "probe",
        dict(BASE["access"]["probe"], constnat=2.0),
        "probe.constnat is not a probe option (known: x0, r_u, r_v, e_region, count)",
    ),
    ("cap", "exponents", {"p": 2.0, "qq": 1.5}, "exponents.qq is not an exponents option (known: p, q)"),
    (
        "cap",
        "tua",
        0.1,
        "tua is not a config option (known: command, grid, image_grid, condenser, mapping, exponents, solver,"
        " modulus, probe, cluster, ring, calibration, tau, seed, csv)",
    ),
    # the retired probe constant
    (
        "access",
        "probe",
        dict(BASE["access"]["probe"], constant=2.0),
        "probe.constant is not a probe option (known: x0, r_u, r_v, e_region, count)",
    ),
]


@pytest.mark.parametrize("command, section, value, diagnostic", TYPOS, ids=[t[3].split()[0] for t in TYPOS])
def test_typos_and_retired_keys_are_validation_errors(tmp_path, capsys, command, section, value, diagnostic):
    cfg = with_section(command, section, value)
    assert validate(cfg, command) == [diagnostic]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    error = json.loads((tmp_path / "out" / f"{command}_report.json").read_text())["error"]
    assert error["type"] == "validation"
    assert error["diagnostics"] == [diagnostic]
    capsys.readouterr()


# ------------------------------------------------------- validate never raises

NAMES = (
    "ring", "regions", "ball", "annulus", "box", "sphere_shell", "complement", "union",
    "intersection", "identity", "affine", "radial_power",
)  # fmt: skip

# Any JSON value: the fuzz that a field may hold instead of its proper shape.
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=3),
        st.sampled_from(NAMES),
    ),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=12,
)


def shaped(strategy):
    """Mostly ``strategy``, sometimes any JSON value."""
    return st.one_of(strategy, strategy, strategy, strategy, json_values)


numbers = shaped(st.one_of(st.integers(-3, 3), st.floats()))
points = shaped(st.lists(numbers, max_size=4))
small_ints = shaped(st.integers(-1, 4))


def obj(**fields):
    """A dict with these fields: plain values are fixed, strategies are drawn."""
    fixed = {k: v if isinstance(v, st.SearchStrategy) else st.just(v) for k, v in fields.items()}
    return shaped(st.fixed_dictionaries(fixed))


regions = st.recursive(
    st.one_of(
        obj(type="ball", center=points, r=numbers),
        obj(type="sphere_shell", center=points, r=numbers, thickness=numbers),
        obj(type="annulus", center=points, r1=numbers, r2=numbers),
        obj(type="box", lo=points, hi=points),
    ),
    lambda kids: st.one_of(
        obj(type="complement", of=kids),
        obj(type=st.sampled_from(["union", "intersection"]), parts=shaped(st.lists(kids, max_size=3))),
    ),
    max_leaves=4,
)
grids = obj(
    n=shaped(st.sampled_from([2, 3])),
    box=shaped(st.lists(shaped(st.lists(numbers, min_size=2, max_size=2)), max_size=3)),
    cells=shaped(st.lists(small_ints, max_size=3)),
    region=regions,
)
benchmarks = obj(
    n=small_ints,
    p=numbers,
    r1=numbers,
    r2=numbers,
    half=numbers,
    resolutions=shaped(st.lists(small_ints, max_size=3)),
)
SECTIONS = {
    "grid": grids,
    "image_grid": grids,
    "condenser": st.one_of(
        obj(type="ring", center=points, r1=numbers, r2=numbers),
        obj(type="regions", e=regions, f=regions),
    ),
    "mapping": st.one_of(
        obj(family="identity"),
        obj(family="affine", matrix=shaped(st.lists(points, max_size=3)), shift=points),
        obj(family="radial_power", alpha=numbers, center=points),
    ),
    "solver": obj(max_iterations=small_ints, rel_tol=numbers, eps=numbers),
    "probe": obj(x0=points, r_u=numbers, r_v=numbers, e_region=regions, count=small_ints),
    "cluster": obj(points=shaped(st.lists(points, max_size=3)), sequences=small_ints, depth=small_ints),
    "calibration": obj(benchmarks=shaped(st.lists(benchmarks, max_size=2))),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BASE)), st.fixed_dictionaries({}, optional=SECTIONS))
@example("cap", {"grid": {"n": 2.0, "box": [[-1, 1], [-1, 1]], "resolution": 4}})
@example("cap", {"grid": {"n": 2, "box": [[0, 10**400], [0, 10**400]], "cells": [1, 1]}})
@example("cap", {"grid": {"n": 2, "box": [], "cells": [4, 4]}})
@example("kcoef", {"mapping": {"family": "affine", "matrix": [[1, 2], [3]], "shift": [0, 0]}})
@example("kcoef", {"mapping": {"family": ["affine"]}})
@example("cap", {"condenser": {"type": "regions", "e": {"type": {}}, "f": {"type": "ball"}}})
def test_validate_never_raises(command, sections):
    cfg = {**BASE[command], **sections}
    diags = validate(cfg, command)
    assert isinstance(diags, list)
    assert all(isinstance(d, str) for d in diags)


# ------------------------------------------------------- README examples


def readme_examples() -> dict:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"for `(\w+)`[^`]*:\s*```json\n(.*?)```", text, flags=re.DOTALL)
    return {command: json.loads(body) for command, body in blocks}


def test_readme_examples_validate():
    examples = readme_examples()
    assert sorted(examples) == ["cap", "dual"]
    for command, cfg in examples.items():
        assert validate(cfg, command) == [], command
