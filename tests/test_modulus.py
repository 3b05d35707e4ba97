"""Discrete p-modulus of curve families and the capacity sandwich."""

import numpy as np
import pytest

import qcap.modulus
from qcap import (
    Annulus,
    Ball,
    Complement,
    Condenser,
    CurveFamily,
    DomainError,
    GeometryError,
    GridDomain,
    check_hesse_shlyk,
    make_ring_condenser,
    modulus_lower_bound,
    rasterize,
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


def per_curve_decision(curves):
    """The length check curve by curve: True where a curve's own sum of segment lengths is <= 0."""
    return [float(np.linalg.norm(np.diff(c, axis=0), axis=-1).sum()) <= 0 for c in curves]


def test_curve_family_checks_lengths_in_one_pass(monkeypatch):
    # one radius call for the whole family, whose decision is each curve's
    # own: zero-length curves raise wherever they sit, NaN coordinates make
    # a sum NaN and pass, and a zero-length join between curves counts for
    # neither of them
    rng = np.random.default_rng(5)
    calls = []
    radius = qcap.modulus.radius
    monkeypatch.setattr(qcap.modulus, "radius", lambda *a: calls.append(1) or radius(*a))
    point = np.full((1, 2), 0.25)
    cases = []
    for n in (2, 3):
        good = [rng.uniform(-1.0, 1.0, (k, n)) for k in (2, 3, 9, 200)]
        flat = np.zeros((5, n))
        nan = np.zeros((4, n))
        nan[2, 0] = np.nan
        cases += [good, good[:2] + [flat] + good[2:], [flat] + good, good + [flat], good[:1] + [nan] + good[1:]]
    # a curve that ends where the next one starts, and a constant curve after it
    cases.append([np.vstack([np.zeros((1, 2)), point]), np.vstack([point, point, point])])
    for curves in cases:
        calls.clear()
        if any(per_curve_decision(curves)):
            with pytest.raises(DomainError, match="positive length"):
                CurveFamily(tuple(curves))
        else:
            assert len(CurveFamily(tuple(curves))) == len(curves)
        assert len(calls) == 1
    assert sum(any(per_curve_decision(c)) for c in cases) == 7


def test_curve_family_needs_one_dimension():
    with pytest.raises(DomainError, match="same dimension"):
        CurveFamily((segment((0.0, 0.0), (1.0, 0.0)), segment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))))


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
    fam = sample_radial_curves(make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, g), 200)
    res = modulus_lower_bound(fam, p, g)
    assert res.admissible_ok and res.converged
    assert 0.0 < res.lower <= res.value
    assert res.value - res.lower <= GAP_TOL * res.value


@pytest.mark.parametrize("p, lower", [(2.0, 8.553355849707463), (3.0, 8.623403621792654)])
def test_modulus_reproduces_recorded_lower(p, lower):
    # dual values recorded from the projected-BB descent that L-BFGS-B replaced
    g = GridDomain.box(2, (-2.5, -2.5), (128, 128), 5.0 / 128)
    fam = sample_radial_curves(make_ring_condenser((0.0, 0.0), 1.0, 2.0, g), 360)
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
    fam = sample_radial_curves(make_ring_condenser((0.0, 0.0), 1.0, 2.0, g), count)
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
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    fam = sample_radial_curves(cond, 8)
    assert len(fam) == 8
    for curve in fam.curves:
        radii = np.linalg.norm(curve, axis=1)
        assert radii[0] <= radii[-1]
        # endpoints land on cells of the rasterized plates
        first, _ = g.locate(curve[0])
        last, _ = g.locate(curve[-1])
        assert cond.E[tuple(first)]
        assert cond.F[tuple(last)]
    # the ball of radius 2.45 fits the box, but not with the 1.5 h margin
    with pytest.raises(GeometryError, match="margin"):
        sample_radial_curves(make_ring_condenser((0.0, 0.0), 1.0, 2.45, g), 8)
    with pytest.raises(DomainError):
        sample_radial_curves(cond, 0)
    # the same plates without their recorded ring regions
    with pytest.raises(GeometryError, match="concentric ring plates"):
        sample_radial_curves(Condenser(cond.E, cond.F, g), 8)


@pytest.mark.parametrize("count", [2.5, 3.0, True, np.float64(3.0)])
def test_sample_radial_curves_takes_an_integer_count(count):
    # a count of 2.5 once gave 3 curves
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    with pytest.raises(DomainError, match="integer count"):
        sample_radial_curves(cond, count)
    with pytest.raises(DomainError, match="integer count"):
        check_hesse_shlyk(cond, 2.0, count)
    assert len(sample_radial_curves(cond, np.int64(3))) == 3


def plate_ends(fam, cond):
    """Per curve: does its first point lie in a cell of E, and its last in a cell of F?"""
    first, ok_e = cond.domain.locate(np.array([c[0] for c in fam.curves]))
    last, ok_f = cond.domain.locate(np.array([c[-1] for c in fam.curves]))
    return ok_e & cond.E[tuple(first.T)], ok_f & cond.F[tuple(last.T)]


def test_sampled_curves_join_the_plates_at_a_tie():
    # the center of cell (9, 22, 22) is (-7, 6, 6) * 2/11, at distance
    # exactly 2 = r2 (49 + 36 + 36 = 121); summed in axis order it is just
    # below 2, so the cell is not in F.  Curve 1's outer end lies in it when
    # a dot product decides membership.
    g = GridDomain.box(3, (-3.0,) * 3, (33,) * 3, 6.0 / 33)
    cond = make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, g)
    assert not cond.F[9, 22, 22]
    fam = sample_radial_curves(cond, 7)
    in_e, in_f = plate_ends(fam, cond)
    assert in_e.all() and in_f.all()
    last, _ = g.locate(fam.curves[1][-1])
    assert tuple(last) == (9, 22, 23)


@pytest.mark.parametrize("n, cells", [(2, 64), (2, 132), (2, 190), (3, 16), (3, 33), (3, 47)])
@pytest.mark.parametrize("half", [2.5, 3.0])
def test_sampled_curves_join_the_plates(n, cells, half):
    g = GridDomain.box(n, (-half,) * n, (cells,) * n, 2 * half / cells)
    cond = make_ring_condenser((0.0,) * n, 1.0, 2.0, g)
    for count in (7, 13, 50, 360):
        in_e, in_f = plate_ends(sample_radial_curves(cond, count), cond)
        assert in_e.all() and in_f.all()


def test_unreachable_plate_raises():
    # F holds only the cells beyond 2.4 while its recorded region says 2:
    # five quarter-cell steps outward from 2 stop short of it
    g = GridDomain.box(2, (-3.0, -3.0), (64, 64), 6.0 / 64)
    region_e, region_f = Ball((0.0, 0.0), 1.0, closed=True), Complement(Ball((0.0, 0.0), 2.0))
    far = rasterize(Complement(Ball((0.0, 0.0), 2.4)), g)
    cond = Condenser(rasterize(region_e, g), far, g, region_e, region_f)
    with pytest.raises(GeometryError, match="does not reach its plate"):
        sample_radial_curves(cond, 8)


def loop_plate_reach(x0, r0, direction, grid, plate, step):
    """Reference: the nudge loop of ``_plate_reach`` for one direction; None where it never lands."""
    r = r0
    for _ in range(6):
        idx, valid = grid.locate(x0 + r * direction)
        if valid and plate[tuple(idx)]:
            return r
        r = max(r + step, grid.h / 4)
    return None


@pytest.mark.parametrize("n", [2, 3])
def test_plate_reach_matches_per_direction_loop(n):
    # all directions at once against one at a time, bit for bit, on seeded
    # rings where many endpoints need one or more nudges; coarse grids put
    # inner radii below a cell (the h/4 floor) and outer radii past the box,
    # where a direction that never lands makes the batch raise
    rng = np.random.default_rng(30 + n)
    nudged = 0
    for _ in range(25):
        cells = int(rng.integers(6, 80)) if n == 2 else int(rng.integers(4, 28))
        grid = GridDomain.box(n, (-2.5,) * n, (cells,) * n, 5.0 / cells)
        x0 = rng.uniform(-0.3, 0.3, n)
        r1 = rng.uniform(0.05, 1.0)
        r2 = rng.uniform(r1 + 0.2, 2.45)
        dirs = directions(n, int(rng.integers(1, 120)), phase=rng.uniform(0, 1))
        e = rasterize(Ball(tuple(x0), r1, closed=True), grid)
        f = rasterize(Complement(Ball(tuple(x0), r2)), grid)
        for r, plate, step in ((r1, e, -grid.h / 4), (r2, f, grid.h / 4)):
            want = [loop_plate_reach(x0, r, d, grid, plate, step) for d in dirs]
            if None in want:
                with pytest.raises(GeometryError, match="does not reach its plate"):
                    _plate_reach(x0, r, dirs, grid, plate, step)
                continue
            got = _plate_reach(x0, r, dirs, grid, plate, step)
            assert np.array_equal(got, want)
            nudged += int((got != r).sum())
    assert nudged > 100


def test_four_curves_hit_the_axes():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    fam = sample_radial_curves(make_ring_condenser((0.0, 0.0), 1.0, 2.0, g), 4)
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
