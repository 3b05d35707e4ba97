"""Config validation, object builders, and the command-line entry point."""

import json
import math

import numpy as np
import pytest

import qcap.cli
import qcap.modulus
from qcap import (
    Annulus,
    Ball,
    Box,
    Identity,
    RadialPower,
    check_hesse_shlyk,
    ring_capacity_exact,
    sample_shell_continua,
    verify_capacity_inequality,
    verify_dual_inequality,
)
from qcap.capacity import RingBenchmark
from qcap.cli import build_parser, main
from qcap.config import (
    build_benchmarks,
    build_condenser,
    build_grid,
    build_mapping,
    build_region,
    build_solver,
    validate,
)
from qcap.grid import point_diameter

from grid_helpers import all_centers

GRID2 = {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [32, 32]}
RING_COND = {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 2.0}


def cap_config(**extra):
    cfg = {"grid": dict(GRID2), "condenser": dict(RING_COND), "exponents": {"p": 2.0}}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------- validate


def test_validate_accepts_good_config():
    assert validate(cap_config(), "cap") == []


def test_validate_unknown_command():
    assert validate({}, "frobnicate") == ["unknown command 'frobnicate'"]


def test_validate_non_object_config():
    assert validate([1, 2], "cap") == ["config must be a JSON object"]


def test_validate_missing_sections():
    diags = validate({"grid": GRID2}, "cap")
    assert any("condenser" in d for d in diags)
    assert any("exponents" in d for d in diags)


def test_validate_exponent_ranges():
    bad = cap_config()
    bad["exponents"] = {"p": 1.0}
    assert validate(bad, "cap") == ["exponents.p: energy exponent must satisfy p > 1, got 1.0"]
    bad["exponents"] = {"p": 2.0, "q": 3.0}
    assert validate(bad, "cap") == ["exponents.q: exponents must satisfy 1 < q <= p, got q=3.0, p=2.0"]


def test_validate_q_required_for_distortion_commands():
    cfg = {"grid": dict(GRID2), "mapping": {"family": "identity"}, "exponents": {"p": 2.0}}
    assert any("q is required" in d for d in validate(cfg, "kcoef"))


def test_validate_ring_condenser_radii():
    bad = cap_config()
    bad["condenser"] = {"type": "ring", "center": [0, 0], "r1": 2.0, "r2": 1.0}
    assert validate(bad, "cap") == ["condenser: ring radii must satisfy 0 < r1 < r2, got r1=2.0, r2=1.0"]
    bad["condenser"] = {"type": "wedge"}
    assert any("'ring' or 'regions'" in d for d in validate(bad, "cap"))


def test_validate_region_condenser():
    cfg = cap_config()
    cfg["condenser"] = {
        "type": "regions",
        "e": {"type": "ball", "center": [0, 0], "r": 1.0},
        "f": {"type": "annulus", "center": [0, 0], "r1": 2.0, "r2": 1.0},
    }
    diags = validate(cfg, "cap")
    assert any("condenser.f" in d for d in diags)


def test_validate_grid_spec():
    bad = cap_config()
    bad["grid"] = {"n": 4, "box": [[-1, 1]] * 4, "cells": [8] * 4}
    assert any("n must be 2 or 3" in d for d in validate(bad, "cap"))
    bad["grid"] = {"n": 2, "box": [[-1, 1], [1, -1]], "cells": [8, 8]}
    assert any("lo < hi" in d for d in validate(bad, "cap"))
    bad["grid"] = {"n": 2, "box": [[-1, 1], [-1, 1]]}
    assert any("'cells' or 'resolution'" in d for d in validate(bad, "cap"))


def test_validate_solver_spec():
    bad = cap_config(solver={"max_iterations": 0})
    assert any("max_iterations" in d for d in validate(bad, "cap"))
    bad = cap_config(solver={"eps": 0.0})
    assert validate(bad, "cap") == ["solver: eps must be positive and finite"]
    bad = cap_config(solver={"eps": [1e-3]})
    assert validate(bad, "cap") == ["solver.eps must be a number"]


def test_validate_rejects_unknown_solver_keys(tmp_path, capsys):
    # the retired continuation schedule must not run silently at the default eps
    cfg = cap_config(solver={"eps_schedule": [1e-1, 1e-4], "rel_tol": 1e-8})
    diagnostic = "solver.eps_schedule is not a solver option (known: max_iterations, rel_tol, eps)"
    assert validate(cfg, "cap") == [diagnostic]
    code, report, _ = run_cli(tmp_path, "cap", cfg)
    assert code == 2
    assert report["error"]["diagnostics"] == [diagnostic]
    assert "result" not in report
    capsys.readouterr()


def test_validate_ring_command():
    assert validate({"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0}}, "ring") == []
    diags = validate({"ring": {"n": 5, "p": 0.5, "r1": 2.0, "r2": 1.0}}, "ring")
    assert len(diags) == 3


def test_validate_probe_spec():
    cfg = {
        "grid": dict(GRID2),
        "exponents": {"p": 2.0},
        "probe": {
            "x0": [1.0, 0.0],
            "r_u": 0.2,
            "r_v": 0.6,
            "e_region": {"type": "ball", "center": [0, 0], "r": 0.5},
            "count": 0,
        },
    }
    diags = validate(cfg, "access")
    assert any("0 < r_v < r_u" in d for d in diags)
    assert any("count" in d for d in diags)


def test_validate_cluster_spec():
    cfg = {
        "image_grid": dict(GRID2),
        "mapping": {"family": "identity"},
        "cluster": {"points": [], "sequences": 4, "depth": 0},
    }
    diags = validate(cfg, "cluster")
    assert any("points" in d for d in diags)
    assert any("depth" in d for d in diags)


# ---------------------------------------------------------------- builders


def test_build_region_all_types():
    ball = build_region({"type": "ball", "center": [0, 0], "r": 1.0, "closed": True})
    assert ball == Ball((0.0, 0.0), 1.0, True)
    ann = build_region({"type": "annulus", "center": [1, 2], "r1": 0.5, "r2": 2.0})
    assert ann == Annulus((1.0, 2.0), 0.5, 2.0)
    box = build_region({"type": "box", "lo": [0, 0], "hi": [1, 2]})
    assert box == Box((0.0, 0.0), (1.0, 2.0))
    comp = build_region({"type": "complement", "of": {"type": "ball", "center": [0, 0], "r": 1.0}})
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    np.testing.assert_array_equal(comp.contains(pts), [False, True])
    uni = build_region(
        {
            "type": "union",
            "parts": [
                {"type": "ball", "center": [0, 0], "r": 0.5},
                {"type": "ball", "center": [2, 0], "r": 0.5},
            ],
        }
    )
    np.testing.assert_array_equal(uni.contains(np.array([[0, 0], [2, 0], [1, 0]])), [True, True, False])


def test_build_grid_variants():
    g = build_grid(GRID2)
    assert g.n == 2 and g.cells == (32, 32) and g.h == pytest.approx(5.0 / 32)
    spec = {"n": 3, "box": [[-1, 1]] * 3, "resolution": 8,
            "region": {"type": "ball", "center": [0, 0, 0], "r": 0.9}}
    g3 = build_grid(spec)
    assert g3.n == 3 and g3.cells == (8, 8, 8)
    assert g3.mask.sum() < 8 ** 3


def test_build_mapping_families():
    assert isinstance(build_mapping({"family": "identity"}), Identity)
    aff = build_mapping({"family": "affine", "matrix": [[2, 0], [0, 1]], "shift": [1, 0]})
    np.testing.assert_allclose(aff.evaluate(np.array([[1.0, 1.0]])), [[3.0, 1.0]])
    rad = build_mapping({"family": "radial_power", "alpha": 2.0, "center": [0, 0]})
    assert isinstance(rad, RadialPower) and rad.alpha == 2.0


def test_build_condenser_regions():
    g = build_grid(GRID2)
    cond = build_condenser(
        {
            "type": "regions",
            "e": {"type": "ball", "center": [0, 0], "r": 1.0, "closed": True},
            "f": {"type": "complement", "of": {"type": "ball", "center": [0, 0], "r": 2.0}},
        },
        g,
    )
    assert cond.E.any() and cond.F.any()
    assert not (cond.E & cond.F).any()


def test_build_solver_defaults_and_overrides():
    opts = build_solver(None)
    assert opts.max_iterations >= 1000 and opts.eps == 1e-4
    opts = build_solver({"max_iterations": 7, "rel_tol": 1e-6, "eps": 1e-3})
    assert opts.max_iterations == 7
    assert opts.rel_tol == 1e-6
    assert opts.eps == 1e-3


def test_build_benchmarks():
    assert build_benchmarks({}) is None
    cfg = {
        "calibration": {
            "benchmarks": [
                {"n": 2, "p": 3.0, "r1": 1.0, "r2": 2.0, "half": 2.5, "resolutions": [16, 24]}
            ]
        }
    }
    benches = build_benchmarks(cfg)
    assert benches == (RingBenchmark(2, 3.0, 1.0, 2.0, 2.5, (16, 24)),)


# ---------------------------------------------------------------- CLI


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_cli(tmp_path, command, cfg, *extra):
    path = write_config(tmp_path, f"{command}.json", cfg)
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out), *extra])
    report_path = out / f"{command}_report.json"
    return code, json.loads(report_path.read_text()), report_path


def test_cli_ring_report(tmp_path, capsys):
    cfg = {"ring": {"n": 2, "p": 3.0, "r1": 1.0, "r2": 2.0}}
    code, report, _ = run_cli(tmp_path, "ring", cfg)
    assert code == 0
    assert report["command"] == "ring"
    assert report["config"]["seed"] == 0
    want = ring_capacity_exact(2, 3.0, 1.0, 2.0)
    assert report["result"]["exact"] == pytest.approx(want, rel=1e-14)
    # the report is also printed on stdout
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_cli_reports_are_reproducible(tmp_path):
    cfg = cap_config(seed=42)
    _, _, path_a = run_cli(tmp_path, "cap", cfg)
    first = path_a.read_bytes()
    _, _, path_b = run_cli(tmp_path, "cap", cfg)
    assert path_b.read_bytes() == first


def test_cli_modulus_report_carries_a_certified_bracket(tmp_path, capsys, monkeypatch):
    cfg = cap_config(modulus={"curve_count": 48})
    code, report, path = run_cli(tmp_path, "modulus", cfg)
    assert code == 0
    res = report["result"]
    assert res["converged"] and res["admissible_ok"]
    assert 0.0 < res["lower"] <= res["modulus"] <= 1.05 * res["capacity"]
    assert res["gap"] == pytest.approx((res["modulus"] - res["lower"]) / res["modulus"], rel=1e-12)
    assert res["gap"] <= 1e-6
    first = path.read_bytes()
    run_cli(tmp_path, "modulus", cfg)
    assert path.read_bytes() == first
    # a bracket wider than the gap tolerance is a non-convergence that keeps the numbers
    monkeypatch.setattr(qcap.modulus, "GAP_TOL", 0.0)
    code, report, _ = run_cli(tmp_path, "modulus", cfg)
    assert code == 3
    assert report["result"]["lower"] == res["lower"] and not report["result"]["converged"]
    capsys.readouterr()


def test_cli_modulus_csv_lists_the_density(tmp_path, capsys):
    cfg = cap_config(modulus={"curve_count": 48}, csv=True)
    code, _, path = run_cli(tmp_path, "modulus", cfg)
    assert code == 0
    rows = (path.parent / "modulus_density.csv").read_text().splitlines()
    assert rows[0] == "cell_index,rho"
    got = [(int(i), float(rho)) for i, rho in (row.split(",") for row in rows[1:])]
    grid = build_grid(cfg["grid"])
    density = check_hesse_shlyk(build_condenser(cfg["condenser"], grid), 2.0, 48)["density"]
    nonzero = np.flatnonzero(density)
    assert nonzero.size > 0
    assert got == [(int(i), density[i]) for i in nonzero]
    capsys.readouterr()


@pytest.mark.parametrize("loaded", [[1, 2], "text"], ids=["list", "string"])
def test_cli_non_object_config_is_a_validation_error(tmp_path, capsys, loaded):
    code, report, _ = run_cli(tmp_path, "cap", loaded)
    assert code == 2
    assert report["error"]["type"] == "validation"
    assert report["error"]["diagnostics"] == ["config must be a JSON object"]
    assert report["config"] == loaded
    capsys.readouterr()


def test_cli_negative_seed_flag_is_a_validation_error(tmp_path, capsys):
    cfg = {"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0}}
    code, report, _ = run_cli(tmp_path, "ring", cfg, "--seed", "-1")
    assert code == 2
    assert report["error"]["type"] == "validation"
    assert report["error"]["diagnostics"] == ["seed must be a nonnegative integer"]
    assert report["config"]["seed"] == -1
    capsys.readouterr()


def test_cli_seed_flag_overrides_config(tmp_path):
    cfg = {"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0}, "seed": 7}
    code, report, _ = run_cli(tmp_path, "ring", cfg)
    assert report["config"]["seed"] == 7
    code, report, _ = run_cli(tmp_path, "ring", cfg, "--seed", "11")
    assert report["config"]["seed"] == 11


def test_cli_parser_is_built_once(tmp_path):
    # one parser serves every call, and a flag of one call does not stick to the next
    assert build_parser() is build_parser()
    cfg = {"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0}, "seed": 7}
    run_cli(tmp_path, "ring", cfg, "--seed", "11")
    _, report, _ = run_cli(tmp_path, "ring", cfg)
    assert report["config"]["seed"] == 7


def test_cli_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["ring", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "ring_report.json").read_text())
    assert report["error"]["code"] == 2
    capsys.readouterr()


def test_cli_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["ring", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "ring_report.json").read_text())
    assert report["error"]["type"] == "JSONDecodeError"
    capsys.readouterr()


def test_cli_undecodable_config(tmp_path, capsys):
    # a byte that is not UTF-8 is reported as bad JSON is, not as a traceback
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"ring": \xff}')
    code = main(["ring", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "ring_report.json").read_text())
    assert report["error"]["type"] == "UnicodeDecodeError"
    assert "0xff" in report["error"]["message"]
    capsys.readouterr()


def test_cli_unwritable_report_exits_2(tmp_path, capsys):
    # a report, an error report or a CSV series that cannot be written exits 2, the reason on stderr
    blocker = tmp_path / "afile"
    blocker.write_text("x", encoding="utf-8")
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0}}), encoding="utf-8")
    for config in (ring, tmp_path / "absent.json"):
        assert main(["ring", "--config", str(config), "--out", str(blocker / "sub")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot write the report" in err and "Not a directory" in err
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps(cap_config(csv=True)), encoding="utf-8")
    out_dir = tmp_path / "out"
    (out_dir / "cap_energy_history.csv").mkdir(parents=True)
    assert main(["cap", "--config", str(cap), "--out", str(out_dir)]) == 2
    assert "cap_energy_history.csv" in capsys.readouterr().err


def test_cli_validation_diagnostics(tmp_path, capsys):
    cfg = cap_config()
    cfg["exponents"] = {"p": 0.5}
    code, report, _ = run_cli(tmp_path, "cap", cfg)
    assert code == 2
    assert report["error"]["type"] == "validation"
    assert any("exponents.p" in d for d in report["error"]["diagnostics"])
    assert "result" not in report
    capsys.readouterr()


def test_cli_geometry_error(tmp_path, capsys):
    cfg = {
        "grid": {"n": 2, "box": [[-1.5, 1.5], [-1.5, 1.5]], "cells": [6, 6]},
        "condenser": {"type": "ring", "center": [0.0, 0.0], "r1": 0.5, "r2": 0.76},
        "exponents": {"p": 2.0},
    }
    code, report, _ = run_cli(tmp_path, "cap", cfg)
    assert code == 4
    assert report["error"]["type"] == "GeometryError"
    capsys.readouterr()


def test_cli_window_error(tmp_path, capsys):
    cfg = {
        "grid": {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [16, 16]},
        "image_grid": {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [16, 16]},
        "condenser": dict(RING_COND),
        "mapping": {"family": "identity"},
        "exponents": {"p": 2.5, "q": 2.2},
    }
    code, report, _ = run_cli(tmp_path, "dual", cfg)
    assert code == 2
    assert report["error"]["type"] == "validation"
    assert report["error"]["diagnostics"] == [
        "exponents: need n < q <= p < (n-1)^2/(n-2), empty at n = 2; got n=2, p=2.5, q=2.2"
    ]
    capsys.readouterr()


def test_cli_non_convergence_keeps_partial_result(tmp_path, capsys):
    cfg = cap_config(solver={"max_iterations": 5})
    code, report, _ = run_cli(tmp_path, "cap", cfg)
    assert code == 3
    assert report["error"]["type"] == "non_convergence"
    assert report["result"]["iterations"] == 5
    assert report["result"]["value"] > 0
    capsys.readouterr()


def test_cli_cap_csv_trace(tmp_path, capsys):
    cfg = cap_config(csv=True)
    cfg["grid"]["cells"] = [24, 24]
    code, _, path = run_cli(tmp_path, "cap", cfg)
    assert code == 0
    trace = (path.parent / "cap_energy_history.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy"
    assert len(trace) > 2
    energies = [float(row.split(",")[1]) for row in trace[1:]]
    assert all(math.isfinite(e) for e in energies)
    capsys.readouterr()


def test_cli_kcoef_exact_value(tmp_path, capsys):
    cfg = {
        "grid": {"n": 2, "box": [[-2.5, 2.5], [-2.5, 2.5]], "cells": [32, 32]},
        "mapping": {"family": "radial_power", "alpha": 2.0, "center": [0.0, 0.0]},
        "exponents": {"p": 2.0, "q": 2.0},
    }
    code, report, _ = run_cli(tmp_path, "kcoef", cfg)
    assert code == 0
    assert report["result"]["value"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    capsys.readouterr()


def test_cli_kcoef_non_finite_value_exits_3(tmp_path, capsys):
    # r^999 overflows the quotients |Dphi|^p / |J| to inf / inf = NaN
    cfg = {
        "grid": {"n": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]], "cells": [32, 32]},
        "mapping": {"family": "radial_power", "alpha": 1000.0, "center": [0.0, 0.0]},
        "exponents": {"p": 2.0, "q": 2.0},
    }
    with np.errstate(all="ignore"):
        code, report, _ = run_cli(tmp_path, "kcoef", cfg)
    assert code == 3
    assert report["error"]["type"] == "non_convergence"
    assert report["result"]["value"] is None
    capsys.readouterr()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("qcap ")


# ------------------------------------------------------- runner coverage

ORIGIN3 = [0.0, 0.0, 0.0]


def box_spec(n, half, cells):
    return {"n": n, "box": [[-half, half]] * n, "cells": [cells] * n}


def run_cli_twice(tmp_path, command, cfg):
    """Exit code 0 and byte-identical reruns; returns the result section."""
    code, report, path = run_cli(tmp_path, command, cfg)
    assert code == 0, report.get("error")
    first = path.read_bytes()
    assert run_cli(tmp_path, command, cfg)[0] == 0
    assert path.read_bytes() == first
    return report["result"]


@pytest.mark.parametrize(
    "command, cfg",
    [
        (
            "distort",
            {
                "grid": box_spec(2, 2.5, 24),
                "image_grid": box_spec(2, 4.5, 24),
                "condenser": {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 4.0},
                "mapping": {"family": "radial_power", "alpha": 2.0, "center": [0.0, 0.0]},
                "exponents": {"p": 2.0, "q": 2.0},
            },
        ),
        (
            "dual",
            {
                "grid": box_spec(3, 2.5, 10),
                "image_grid": box_spec(3, 2.5, 10),
                "condenser": {"type": "ring", "center": ORIGIN3, "r1": 0.8, "r2": 1.8},
                "mapping": {"family": "radial_power", "alpha": 1.1, "center": ORIGIN3},
                "exponents": {"p": 3.5, "q": 3.2},
            },
        ),
    ],
)
def test_cli_inequality_reports_match_the_library(tmp_path, capsys, command, cfg):
    res = run_cli_twice(tmp_path, command, cfg)
    fields = {"lhs", "rhs_K", "rhs_cap", "rhs", "slack", "passed", "discretization_budget", "converged"}
    assert set(res) == fields | {"p", "q", "tau"}
    source, image = build_grid(cfg["grid"]), build_grid(cfg["image_grid"])
    m, p, q = build_mapping(cfg["mapping"]), cfg["exponents"]["p"], cfg["exponents"]["q"]
    opts = build_solver(None)
    if command == "dual":
        rep = verify_dual_inequality(m, build_condenser(cfg["condenser"], source), p, q, image, opts)
    else:
        rep = verify_capacity_inequality(m, build_condenser(cfg["condenser"], image), p, q, source, opts)
    for key in ("lhs", "rhs_K", "rhs_cap", "slack"):
        assert res[key] == getattr(rep, key)
    assert res["rhs"] == rep.rhs
    assert res["passed"] is rep.passed and res["converged"] is rep.converged
    assert (res["p"], res["q"], res["tau"]) == (p, q, 0.05)
    capsys.readouterr()


def test_cli_access_runner(tmp_path, capsys):
    b = 1.9 / math.sqrt(2)
    cfg = {
        "grid": {**box_spec(2, 2.2, 32), "region": {"type": "ball", "center": [0.0, 0.0], "r": 1.9}},
        "exponents": {"p": 2.0},
        "probe": {
            "x0": [b, b],
            "r_u": 0.9,
            "r_v": 0.3,
            "e_region": {"type": "ball", "center": [0.0, 0.0], "r": 0.5, "closed": True},
            "count": 3,
        },
        "seed": 5,
    }
    res = run_cli_twice(tmp_path, "access", cfg)
    assert {"delta_hat", "converged", "grid", "count"} <= set(res)
    assert res["count"] == 3 and res["converged"] and res["delta_hat"] > 0
    capsys.readouterr()


def test_cli_access_reports_no_bound_outside_its_window(tmp_path, capsys):
    # p = 3 in 2D lies outside n - 1 < p <= n; the probe still reports its capacities
    b = 1.9 / math.sqrt(2)
    cfg = {
        "grid": {**box_spec(2, 2.2, 32), "region": {"type": "ball", "center": [0.0, 0.0], "r": 1.9}},
        "exponents": {"p": 3.0},
        "probe": {
            "x0": [b, b],
            "r_u": 0.9,
            "r_v": 0.3,
            "e_region": {"type": "ball", "center": [0.0, 0.0], "r": 0.5, "closed": True},
            "count": 3,
        },
    }
    res = run_cli_twice(tmp_path, "access", cfg)
    assert res["converged"] and res["delta_hat"] > 0
    capsys.readouterr()


def access_config(grid, x0, e_center, e_r, p=2.0, count=8):
    return {
        "grid": grid,
        "exponents": {"p": p},
        "probe": {
            "x0": x0,
            "r_u": 0.9,
            "r_v": 0.3,
            "e_region": {"type": "ball", "center": e_center, "r": e_r, "closed": True},
            "count": count,
        },
    }


def test_cli_access_3d_tubes_cross_the_shell(tmp_path, capsys, monkeypatch):
    # every tube must reach from the ball of radius r_v to the sphere of radius r_u
    grid = {**box_spec(3, 2.2, 24), "region": {"type": "ball", "center": [0.0] * 3, "r": 1.9}}
    cfg = access_config(grid, [1.9, 0.0, 0.0], [0.0] * 3, 0.5, p=2.5, count=3)
    seen = {}

    def sample(x0, r_u, r_v, e_cells, grid, count, rng):
        seen["grid"] = grid
        seen["tubes"] = sample_shell_continua(x0, r_u, r_v, e_cells, grid, count, rng)
        return seen["tubes"]

    monkeypatch.setattr(qcap.cli, "sample_shell_continua", sample)
    code, report, _ = run_cli(tmp_path, "access", cfg, "--seed", "1")
    assert code == 0, report.get("error")
    centers = all_centers(seen["grid"])
    assert len(seen["tubes"]) == 3
    assert min(point_diameter(centers[tube]) for tube in seen["tubes"]) >= 0.9 - 0.3 - 2 * 4.4 / 24
    capsys.readouterr()


def test_cli_access_one_cell_plate(tmp_path, capsys):
    # E is the single cell centred at (0.034375, 0.034375)
    grid = {**box_spec(2, 2.2, 64), "region": {"type": "ball", "center": [0.0, 0.0], "r": 1.9}}
    b = 1.9 / math.sqrt(2)
    res = run_cli_twice(tmp_path, "access", access_config(grid, [b, b], [0.034375, 0.034375], 0.01))
    assert res["converged"] and res["delta_hat"] > 0
    capsys.readouterr()


def test_cli_access_rejects_an_interior_point(tmp_path, capsys):
    grid = {**box_spec(2, 2.2, 64), "region": {"type": "ball", "center": [0.0, 0.0], "r": 1.9}}
    code, report, _ = run_cli(tmp_path, "access", access_config(grid, [-0.6, 0.0], [1.0, 0.0], 0.5))
    assert code == 2
    assert report["error"]["type"] == "DomainError" and "interior" in report["error"]["message"]
    capsys.readouterr()


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_access_tubes_skip_the_plate_e(tmp_path, capsys, seed):
    # at r_u = 1.6 some radial tubes reach E (its edge is 1.4 from x0); kept, they would overlap E (exit 4)
    grid = {**box_spec(2, 2.2, 64), "region": {"type": "ball", "center": [0.0, 0.0], "r": 1.9}}
    b = 1.9 / math.sqrt(2)
    cfg = access_config(grid, [b, b], [0.0, 0.0], 0.5)
    cfg["probe"]["r_u"] = 1.6
    code, report, _ = run_cli(tmp_path, "access", cfg, "--seed", str(seed))
    assert code == 0, report.get("error")
    assert report["result"]["converged"] and report["result"]["delta_hat"] > 0
    capsys.readouterr()


def test_cli_cluster_runner(tmp_path, capsys):
    cfg = {
        "image_grid": {
            **box_spec(2, 2.2, 64),
            "region": {"type": "annulus", "center": [0.0, 0.0], "r1": 0.5, "r2": 2.0},
        },
        "mapping": {"family": "radial_power", "alpha": 2.0, "center": [0.0, 0.0]},
        "cluster": {"points": [[2.0, 0.0], [0.0, -0.5]], "sequences": 3, "depth": 6},
    }
    res = run_cli_twice(tmp_path, "cluster", cfg)
    assert set(res) == {"estimates", "max_diameter", "merge_radius", "grid"}
    assert [e["at"] for e in res["estimates"]] == cfg["cluster"]["points"]
    assert res["merge_radius"] == 2 * 4.4 / 64
    capsys.readouterr()


def test_cli_cluster_on_box_faces(tmp_path, capsys):
    # an image grid without a region: its box faces are the boundary
    cfg = {
        "image_grid": box_spec(2, 1.0, 64),
        "mapping": {"family": "identity"},
        "cluster": {"points": [[-1.0, 0.1], [0.1, -1.0], [0.999, 0.2]], "sequences": 3, "depth": 6},
    }
    res = run_cli_twice(tmp_path, "cluster", cfg)
    assert all(len(e["points"]) == 1 for e in res["estimates"])
    capsys.readouterr()


def test_cli_calibrate_runner(tmp_path, capsys):
    bench = {"n": 2, "p": 2.0, "r1": 1.0, "r2": 2.0, "half": 2.5, "resolutions": [16, 32]}
    res = run_cli_twice(tmp_path, "calibrate", {"calibration": {"benchmarks": [bench]}})
    assert set(res) == {"runs", "refinement_ratios", "tau_disc"}
    assert [run["resolution"] for run in res["runs"]] == [16, 32]
    assert res["tau_disc"] == max(run["rel_error"] for run in res["runs"])
    capsys.readouterr()


# ``json`` reads the literals NaN and Infinity; each one is a validation error.
NON_FINITE = [
    (
        "distort",
        {
            "grid": box_spec(2, 2.5, 8),
            "image_grid": box_spec(2, 4.5, 8),
            "condenser": {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 4.0},
            "mapping": {"family": "identity"},
            "exponents": {"p": 2.0, "q": 2.0},
            "tau": math.inf,
        },
        "tau must be a number",
    ),
    ("ring", {"ring": {"n": 2, "p": 2.0, "r1": 1.0, "r2": math.inf}}, "ring.r2 must be a number"),
    (
        "cap",
        cap_config(grid={"n": 2, "box": [[-math.inf, 3.0], [-2.5, 2.5]], "cells": [32, 32]}),
        "grid.box must be 2 pairs [lo, hi] with lo < hi",
    ),
    ("cap", cap_config(exponents={"p": math.nan}), "exponents.p must be a number"),
    ("cap", cap_config(solver={"eps": math.nan}), "solver.eps must be a number"),
]


@pytest.mark.parametrize(
    "command, cfg, diagnostic", NON_FINITE, ids=["tau-inf", "ring-r2-inf", "box-lo-inf", "p-nan", "eps-nan"]
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, command, cfg, diagnostic):
    code, report, _ = run_cli(tmp_path, command, cfg)
    text = (tmp_path / f"{command}.json").read_text()
    assert "Infinity" in text or "NaN" in text
    assert code == 2
    assert report["error"]["type"] == "validation"
    assert report["error"]["diagnostics"] == [diagnostic]
    capsys.readouterr()


# Failure paths no other test reaches: a validation diagnostic (exit 2) or an
# error the runner raises, reported with its type and message.
FAILURES = [
    ("cap", cap_config(grid={**GRID2, "cells": [32, 16]}), 2, "validation", "cell size must be uniform"),
    (
        "cap",
        cap_config(grid={**GRID2, "region": {"type": "sphere_shell", "center": [0, 0], "r": 2.0, "thickness": -0.1}}),
        2,
        "validation",
        "thickness >= 0",
    ),
    (
        "cap",
        cap_config(grid={**GRID2, "region": {"type": "box", "lo": [1.0, 0.0], "hi": [0.0, 1.0]}}),
        2,
        "validation",
        "lo <= hi",
    ),
    (
        "kcoef",
        {
            "grid": dict(GRID2),
            "mapping": {"family": "radial_power", "alpha": 0.0, "center": [0.0, 0.0]},
            "exponents": {"p": 2.0, "q": 2.0},
        },
        2,
        "validation",
        "exponent must be positive",
    ),
    (
        "cap",
        cap_config(grid=box_spec(2, 2.5, 4), condenser={**RING_COND, "r1": 0.3}),
        4,
        "GeometryError",
        "ring plate rasterized empty",
    ),
    (
        "distort",
        {
            "grid": box_spec(2, 2.5, 24),
            "image_grid": box_spec(2, 4.5, 24),
            "condenser": {"type": "ring", "center": [0.0, 0.0], "r1": 1.0, "r2": 4.0},
            "mapping": {"family": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]], "shift": [40.0, 0.0]},
            "exponents": {"p": 2.0, "q": 2.0},
        },
        4,
        "GeometryError",
        "pulled-back plate rasterizes empty",
    ),
    (
        "cluster",
        {
            "image_grid": {
                **box_spec(2, 2.2, 64),
                "region": {"type": "annulus", "center": [0.0, 0.0], "r1": 0.5, "r2": 2.0},
            },
            "mapping": {"family": "radial_power", "alpha": 2.0, "center": [0.0, 0.0]},
            "cluster": {"points": [[10.0, 10.0]], "sequences": 3, "depth": 6},
        },
        2,
        "DomainError",
        "no approach sequence stays inside",
    ),
]


@pytest.mark.parametrize(
    "command, cfg, code, kind, fragment",
    FAILURES,
    ids=[
        "non-uniform-cells",
        "shell-thickness",
        "box-lo-hi",
        "alpha-zero",
        "empty-ring-plate",
        "empty-pullback",
        "cluster-outside",
    ],
)
def test_cli_failure_paths_exit_cleanly(tmp_path, capsys, command, cfg, code, kind, fragment):
    got, report, _ = run_cli(tmp_path, command, cfg)
    assert got == code
    assert (report["error"]["code"], report["error"]["type"]) == (code, kind)
    detail = report["error"]["diagnostics"] if kind == "validation" else [report["error"]["message"]]
    assert any(fragment in line for line in detail)
    assert "result" not in report
    capsys.readouterr()
