"""Discrete p-modulus of curve families and the capacity sandwich."""

import numpy as np
import pytest

import qcap.modulus
from qcap import (
    Annulus,
    Ball,
    CurveFamily,
    DomainError,
    GeometryError,
    GridDomain,
    check_hesse_shlyk,
    make_ring_condenser,
    modulus_lower_bound,
    sample_radial_curves,
    solve_capacity,
)
from qcap.grid import directions
from qcap.modulus import GAP_TOL, _plate_reach


def segment(x0, x1, k=40):
    t = np.linspace(0.0, 1.0, k)[:, None]
    return np.asarray(x0) + t * (np.asarray(x1) - np.asarray(x0))


def closed_form_modulus(fam, p, grid):
    """Independent per-curve optimum for families with disjoint supports.

    For one curve with cell lengths l_j the optimal density yields
    h^n * (sum_j l_j^(p/(p-1)))^(1-p); disjoint curves add up.
    """
    from qcap.modulus import _constraint_matrix

    mat = _constraint_matrix(fam, grid)
    total = 0.0
    for i in range(len(fam)):
        row = mat.getrow(i)
        lens = row.data
        total += grid.h**grid.n * float(np.sum(lens ** (p / (p - 1)))) ** (1 - p)
    return total


def test_curve_family_validation():
    with pytest.raises(DomainError):
        CurveFamily((np.zeros((1, 2)),))
    with pytest.raises(DomainError):
        CurveFamily((np.zeros((3, 2)),))  # zero length
    fam = CurveFamily((segment((0.0, 0.0), (1.0, 0.0)),))
    assert len(fam) == 1
    assert fam.lengths()[0] == pytest.approx(1.0, rel=1e-12)


def test_empty_family_has_zero_modulus():
    g = GridDomain.box(2, (0.0, 0.0), (8, 8), 0.125)
    res = modulus_lower_bound(CurveFamily(()), 2.0, g)
    assert res.value == 0.0
    assert res.lower == 0.0
    assert res.admissible_ok and res.converged
    np.testing.assert_array_equal(res.density, 0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_modulus_matches_closed_form_on_disjoint_segments(p):
    g = GridDomain.box(2, (0.0, 0.0), (32, 32), 0.125)
    fam = CurveFamily(
        (
            segment((0.2, 0.5), (3.8, 0.5)),
            segment((0.2, 1.7), (3.8, 1.7)),
            segment((0.2, 3.1), (2.5, 3.1)),
        )
    )
    res = modulus_lower_bound(fam, p, g)
    assert res.admissible_ok and res.converged
    want = closed_form_modulus(fam, p, g)
    # the dual value and the repaired admissible density bracket the exact
    # family optimum up to rounding, and the bracket is tight
    assert res.lower <= want * (1 + 1e-12)
    assert want * (1 - 1e-12) <= res.value <= want * (1 + 1e-6)
    # the reported density satisfies every constraint
    from qcap.modulus import _constraint_matrix

    mat = _constraint_matrix(fam, g)
    assert (mat @ res.density >= 1.0 - 1e-12).all()


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_modulus_bracket_in_3d(p):
    g = GridDomain.box(3, (-2.5,) * 3, (40,) * 3, 5.0 / 40)
    fam = sample_radial_curves(Annulus((0.0, 0.0, 0.0), 1.0, 2.0), 200, g)
    res = modulus_lower_bound(fam, p, g)
    assert res.admissible_ok and res.converged
    assert 0.0 < res.lower <= res.value
    assert res.value - res.lower <= GAP_TOL * res.value


@pytest.mark.parametrize("p, lower", [(2.0, 8.553355849707463), (3.0, 8.623403621792654)])
def test_modulus_reproduces_recorded_lower(p, lower):
    # dual values recorded from the projected-BB descent that L-BFGS-B replaced
    g = GridDomain.box(2, (-2.5, -2.5), (128, 128), 5.0 / 128)
    fam = sample_radial_curves(Annulus((0.0, 0.0), 1.0, 2.0), 360, g)
    res = modulus_lower_bound(fam, p, g)
    assert res.admissible_ok and res.converged
    assert res.lower == pytest.approx(lower, rel=1e-10)
    assert res.value - res.lower <= GAP_TOL * res.value


@pytest.mark.parametrize("p, count", [(1.5, 720), (3.0, 90)])
def test_modulus_keeps_the_tightest_evaluated_bracket(monkeypatch, p, count):
    # on these rings an earlier multiplier than L-BFGS-B's last one scales
    # to an admissible density of lower energy
    evaluated = []
    solve = qcap.modulus.minimize_projected

    def recording(fun, x0):
        def wrapped(lam):
            evaluated.append(lam.copy())
            return fun(lam)

        return solve(wrapped, x0)

    monkeypatch.setattr(qcap.modulus, "minimize_projected", recording)
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    fam = sample_radial_curves(Annulus((0.0, 0.0), 1.0, 2.0), count, g)
    res = modulus_lower_bound(fam, p, g)
    mat = qcap.modulus._constraint_matrix(fam, g)
    hn = g.h**g.n
    assert res.admissible_ok and res.converged
    for lam in evaluated:
        rho = (np.maximum(mat.T @ lam, 0.0) / (p * hn)) ** (1.0 / (p - 1.0))
        worst = (mat @ rho).min()
        if worst > 0:
            scaled = hn * float(np.sum((rho * ((1.0 + 1e-12) / worst)) ** p))
            assert res.value <= scaled * (1 + 1e-12)
    assert res.value == hn * float(np.sum(res.density**p))


def test_modulus_monotone_in_subfamilies():
    g = GridDomain.box(2, (0.0, 0.0), (32, 32), 0.125)
    rows = (0.4, 0.9, 1.4, 1.9, 2.4, 2.9, 3.4)
    curves = [segment((0.2, y), (3.8, y)) for y in rows]
    values = []
    for k in (2, 4, 7):
        res = modulus_lower_bound(CurveFamily(tuple(curves[:k])), 2.0, g)
        assert res.admissible_ok
        values.append(res.value)
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9


def test_modulus_deterministic():
    g = GridDomain.box(2, (0.0, 0.0), (24, 24), 0.125)
    fam = CurveFamily((segment((0.2, 1.0), (2.8, 1.3)),))
    a = modulus_lower_bound(fam, 2.5, g)
    b = modulus_lower_bound(fam, 2.5, g)
    assert a.value == b.value
    np.testing.assert_array_equal(a.density, b.density)


def test_modulus_validation():
    g = GridDomain.box(2, (0.0, 0.0), (8, 8), 0.125)
    fam = CurveFamily((segment((0.1, 0.1), (0.9, 0.9)),))
    with pytest.raises(DomainError):
        modulus_lower_bound(fam, 1.0, g)


def test_curve_leaving_domain_raises():
    g = GridDomain.box(2, (-1.0, -1.0), (16, 16), 0.125, Annulus((0.0, 0.0), 0.3, 0.95))
    fam = CurveFamily((segment((-0.7, 0.0), (0.7, 0.0)),))  # crosses the hole
    with pytest.raises(GeometryError):
        modulus_lower_bound(fam, 2.0, g)
    # only the second curve of two crosses the hole, and the error names it
    fam = CurveFamily((segment((0.4, 0.0), (0.9, 0.0)), segment((0.0, -0.7), (0.0, 0.7))))
    with pytest.raises(GeometryError, match="curve 1 "):
        modulus_lower_bound(fam, 2.0, g)


def test_sample_radial_curves_geometry():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    ring = Annulus((0.0, 0.0), 1.0, 2.0)
    fam = sample_radial_curves(ring, 8, g)
    assert len(fam) == 8
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    for curve in fam.curves:
        radii = np.linalg.norm(curve, axis=1)
        assert radii[0] <= radii[-1]
        # endpoints land on cells of the rasterized plates
        first, _ = g.locate(curve[0])
        last, _ = g.locate(curve[-1])
        assert cond.E[tuple(first)]
        assert cond.F[tuple(last)]
    with pytest.raises(GeometryError):
        sample_radial_curves(Annulus((0.0, 0.0), 1.0, 2.6), 8, g)
    with pytest.raises(DomainError):
        sample_radial_curves(ring, 0, g)
    with pytest.raises(DomainError, match="dimension 2"):
        sample_radial_curves(Annulus((0.0, 0.0, 0.0), 1.0, 2.0), 8, g)


def loop_plate_reach(x0, r_target, direction, grid, outward):
    """Reference: the nudge loop of ``_plate_reach`` for one direction."""
    r = r_target
    for _ in range(5):
        idx, valid = grid.locate(x0 + r * direction)
        if valid:
            center = np.asarray(grid.origin) + (np.asarray(idx) + 0.5) * grid.h
            d = float(np.linalg.norm(center - x0))
            if (d >= r_target) if outward else (d <= r_target):
                return r
        step = grid.h / 4
        r = r + step if outward else max(r - step, grid.h / 4)
    return r


@pytest.mark.parametrize("n", [2, 3])
def test_plate_reach_matches_per_direction_loop(n):
    # all directions at once against one at a time, bit for bit, on seeded
    # rings where many endpoints need one or more nudges; coarse grids put
    # inner radii below a cell (the h/4 floor) and outer radii past the box
    rng = np.random.default_rng(30 + n)
    nudged = 0
    for _ in range(25):
        cells = int(rng.integers(6, 80)) if n == 2 else int(rng.integers(4, 28))
        grid = GridDomain.box(n, (-2.5,) * n, (cells,) * n, 5.0 / cells)
        x0 = rng.uniform(-0.3, 0.3, n)
        r1 = rng.uniform(0.05, 1.0)
        r2 = rng.uniform(r1 + 0.2, 2.45)
        dirs = directions(n, int(rng.integers(1, 120)), phase=rng.uniform(0, 1))
        for r, outward in ((r1, False), (r2, True)):
            got = _plate_reach(x0, r, dirs, grid, outward)
            want = np.array([loop_plate_reach(x0, r, d, grid, outward) for d in dirs])
            assert np.array_equal(got, want)
            nudged += int((got != r).sum())
    assert nudged > 100


def test_four_curves_hit_the_axes():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    fam = sample_radial_curves(Annulus((0.0, 0.0), 1.0, 2.0), 4, g)
    dirs = np.array([c[-1] / np.linalg.norm(c[-1]) for c in fam.curves])
    want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    np.testing.assert_allclose(dirs, want, atol=1e-12)


def test_check_hesse_shlyk_small_ring():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    rep = check_hesse_shlyk(cond, 2.0, 90)
    assert rep["admissible_ok"] and rep["converged"]
    assert 0.0 < rep["ratio"] <= 1.05
    assert rep["modulus"] == pytest.approx(rep["ratio"] * rep["capacity"], rel=1e-12)
    assert rep["curve_count"] == 90
    density = rep["density"]
    assert density.shape == (g.inside_count,)
    assert np.isfinite(density).all() and (density >= 0).all()
    # sampled modulus stays below the solved capacity here
    cap = solve_capacity(cond, 2.0)
    assert rep["capacity"] == pytest.approx(cap.value, rel=1e-12)


def test_check_hesse_shlyk_requires_ring_plates():
    g = GridDomain.box(2, (-2.0, -2.0), (32, 32), 0.125)
    from qcap import Condenser, rasterize

    e = rasterize(Ball((-0.8, 0.0), 0.4, closed=True), g)
    f = rasterize(Ball((0.8, 0.0), 0.4, closed=True), g)
    with pytest.raises(GeometryError):
        check_hesse_shlyk(Condenser(e, f, g), 2.0, 8)
