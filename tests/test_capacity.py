"""Capacity solver, ring closed forms, and the discretization calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.integrate import quad
from scipy.optimize import Bounds, minimize

from qcap import (
    Ball,
    Condenser,
    DomainError,
    GridDomain,
    RingBenchmark,
    SolverOptions,
    calibrate_discretization,
    make_ring_condenser,
    rasterize,
    ring_capacity_exact,
    solve_capacity,
    solve_ring,
)
import qcap.capacity
import qcap.energy
from qcap.energy import EnergyParams, FreeEnergy, energy_gradient, energy_value
from qcap.grid import Box, Complement, Intersection, dilate_faces, graph_distance

TIGHT = SolverOptions(rel_tol=1e-13)


def test_solver_options_validation():
    SolverOptions()
    with pytest.raises(DomainError):
        SolverOptions(max_iterations=0)
    # rel_tol = inf would stop a Newton solve after one step and call it converged
    for rel_tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(DomainError, match="rel_tol must be positive and finite"):
            SolverOptions(rel_tol=rel_tol)
    assert SolverOptions(eps=1).eps == 1.0
    for eps in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(DomainError):
            SolverOptions(eps=eps)


def quad_ring_capacity(n, p, r1, r2):
    """Radial variational reduction, evaluated by numeric quadrature.

    Minimizing the radial energy gives cap = omega * I^(1-p) with
    I = integral of r^(-(n-1)/(p-1)) over (r1, r2).
    """
    omega = {2: 2 * math.pi, 3: 4 * math.pi}[n]
    val, _ = quad(lambda r: r ** (-(n - 1) / (p - 1)), r1, r2, epsabs=1e-13, epsrel=1e-13)
    return omega * val ** (1 - p)


@pytest.mark.parametrize(
    "n,p,r1,r2",
    [
        (2, 2.0, 1.0, math.e),
        (2, 1.5, 1.0, 2.0),
        (2, 3.0, 0.5, 4.0),
        (3, 2.0, 1.0, 2.0),
        (3, 3.0, 1.0, 2.5),
        (3, 2.5, 0.7, 1.9),
        (2, 2.0 + 1e-9, 1.0, 2.0),
        (3, 3.0 - 1e-9, 1.0, 2.0),
    ],
)
def test_ring_capacity_exact_against_quadrature(n, p, r1, r2):
    got = ring_capacity_exact(n, p, r1, r2)
    want = quad_ring_capacity(n, p, r1, r2)
    assert got == pytest.approx(want, rel=1e-9)


def test_ring_capacity_closed_forms():
    assert ring_capacity_exact(2, 2.0, 1.0, math.e) == pytest.approx(2 * math.pi, rel=1e-14)
    assert ring_capacity_exact(3, 3.0, 1.0, math.e) == pytest.approx(4 * math.pi, rel=1e-14)
    # newtonian capacity of a spherical shell: 4 pi a b / (b - a)
    a, b = 1.0, 2.0
    assert ring_capacity_exact(3, 2.0, a, b) == pytest.approx(
        4 * math.pi * a * b / (b - a), rel=1e-13
    )


def test_ring_capacity_continuous_across_p_equals_n():
    at_n = ring_capacity_exact(2, 2.0, 1.0, 2.0)
    near = ring_capacity_exact(2, 2.0 + 1e-10, 1.0, 2.0)
    assert near == pytest.approx(at_n, rel=1e-8)


def test_ring_capacity_domain_errors():
    with pytest.raises(DomainError):
        ring_capacity_exact(4, 2.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        ring_capacity_exact(2, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        ring_capacity_exact(2, 2.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        ring_capacity_exact(2, 2.0, 0.0, 1.0)


def column_condenser(cells=9):
    g = GridDomain.box(2, (0.0, 0.0), (cells, 3), 1.0)
    e = np.zeros(g.cells, dtype=bool)
    f = np.zeros(g.cells, dtype=bool)
    e[0, :] = True
    f[-1, :] = True
    return g, Condenser(e, f, g)


def test_capacity_trivial_column():
    # one free column between the plates: the p = 2 optimum is u = 1/2
    # exactly, reached in a handful of iterations
    g = GridDomain.box(2, (0.0, 0.0), (3, 3), 1.0)
    e = np.zeros(g.cells, dtype=bool)
    f = np.zeros(g.cells, dtype=bool)
    e[0, :] = True
    f[-1, :] = True
    res = solve_capacity(Condenser(e, f, g), 2.0)
    assert res.converged
    assert res.iterations < 10
    assert res.final_eps == 1e-4
    assert res.value == pytest.approx(1.5, rel=1e-5)


def test_capacity_linear_profile_column():
    # longer channel: the discrete optimum is the linear ramp; the graph
    # capacity is faces * (1/(k-1))^2 per horizontal layer
    g, cond = column_condenser(9)
    res = solve_capacity(cond, 2.0, TIGHT)
    assert res.converged
    # 8 layers of 3 horizontal faces each, jump 1/8 per layer
    assert res.value == pytest.approx(24 * (1 / 8) ** 2, rel=1e-5)


def test_capacity_symmetry_under_plate_swap():
    g = GridDomain.box(2, (-2.0, -2.0), (40, 40), 0.1)
    e = rasterize(Ball((-0.6, -0.3), 0.45, closed=True), g)
    f = rasterize(Ball((0.9, 0.7), 0.75, closed=True), g)
    cond = Condenser(e, f, g)
    a = solve_capacity(cond, 2.5, TIGHT)
    b = solve_capacity(cond.swapped(), 2.5, TIGHT)
    assert a.converged and b.converged
    assert abs(a.value - b.value) / a.value < 1e-10


def test_capacity_monotone_in_plates():
    g = GridDomain.box(2, (-2.0, -2.0), (40, 40), 0.1)
    f = rasterize(Complement(Ball((0.0, 0.0), 1.6)), g)
    values = []
    for r in (0.3, 0.6, 0.9, 1.2):
        e = rasterize(Ball((0.0, 0.0), r, closed=True), g)
        res = solve_capacity(Condenser(e, f, g), 2.0, TIGHT)
        assert res.converged
        values.append(res.value)
    diffs = np.diff(values)
    assert (diffs >= -1e-6).all()


def test_capacity_antimonotone_in_separation():
    g = GridDomain.box(2, (-2.0, -2.0), (40, 40), 0.1)
    e = rasterize(Ball((0.0, 0.0), 0.4, closed=True), g)
    values = []
    for r2 in (0.9, 1.2, 1.5, 1.8):
        f = rasterize(Complement(Ball((0.0, 0.0), r2)), g)
        res = solve_capacity(Condenser(e, f, g), 2.0, TIGHT)
        assert res.converged
        values.append(res.value)
    diffs = np.diff(values)
    assert (diffs <= 1e-6).all()


def frontier_hops(cond, plate):
    """Face-hop count to ``plate`` of every inside cell, by frontier BFS (one face dilation per hop)."""
    mask = cond.domain.mask
    dist = np.full(mask.shape, -1)
    frontier, d = plate, 0
    while frontier.any():
        dist[frontier] = d
        frontier = dilate_faces(frontier) & mask & (dist < 0)
        d += 1
    return dist[mask]


def distance_init(cond):
    """Face-hop ratio d_E / (d_E + d_F), 0 on E and 1 on F: the reference's start, never the solver's."""
    de = frontier_hops(cond, cond.E)
    df = frontier_hops(cond, cond.F)
    return de / (de + df)


def test_distance_init_profile():
    g = GridDomain.box(2, (-2.0, -2.0), (32, 32), 0.125)
    cond = make_ring_condenser((0.0, 0.0), 0.8, 1.6, g)
    u0 = distance_init(cond)
    assert u0.shape == (g.inside_count,)
    assert (u0 >= 0.0).all() and (u0 <= 1.0).all()
    assert (u0[cond.e_indices] == 0.0).all()
    assert (u0[cond.f_indices] == 1.0).all()


def masked_ring_condenser():
    """Ring (1, 2) on a 64² disc of radius 2.45 with a box hole between the plates."""
    region = Intersection((Ball((0.0, 0.0), 2.45), Complement(Box((1.2, -0.3), (1.6, 0.3)))))
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64, region)
    return make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)


def sharing_faces_condenser():
    """E and F touch along a row of faces, fixed at both ends with a difference of 1."""
    g = GridDomain.box(2, (0.0, 0.0), (40, 40), 0.05)
    e_region = Box((0.0, 0.0), (1.0, 0.5))
    e = rasterize(e_region, g)
    f = rasterize(Box((0.0, 0.51), (1.0, 1.0)), g) & ~e
    return Condenser(e, f, g, region_e=e_region)


def plate_field(cond):
    """(base, fixed): the plate field, 0 on E and 1 on F, and the plate cells."""
    base = np.zeros(cond.domain.inside_count)
    base[cond.f_indices] = 1.0
    fixed = np.zeros(cond.domain.inside_count, dtype=bool)
    fixed[cond.e_indices] = True
    fixed[cond.f_indices] = True
    return base, fixed


def record_values(monkeypatch):
    """A list that receives the inside-cell field of every vector ``FreeEnergy.value`` evaluates."""
    fields = []
    value = FreeEnergy.value

    def recording(self, x, p=None):
        fields.append(self.field(x))
        return value(self, x, p)

    monkeypatch.setattr(FreeEnergy, "value", recording)
    return fields


VALUE_CONDENSERS = {
    "ring-2d-64": lambda: make_ring_condenser((0.0, 0.0), 1.0, 2.0, qcap.capacity.ring_grid(2, 2.5, 64)),
    "ring-3d-24": lambda: make_ring_condenser((0.0,) * 3, 1.0, 2.0, qcap.capacity.ring_grid(3, 2.5, 24)),
    "masked-hole": masked_ring_condenser,
    "sharing-faces": sharing_faces_condenser,
}


@pytest.mark.parametrize("eps", [0.0, 1e-4])
@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 10.0])
@pytest.mark.parametrize("name", list(VALUE_CONDENSERS))
def test_free_energy_value_is_energy_value(name, p, eps):
    # for x = u[free], with u the plate field off the free cells, the kept
    # faces plus the g = 0 term of every other cell give energy_value(u) bit
    # for bit, at the solve's p and at an overriding p = 2, in any order
    cond = VALUE_CONDENSERS[name]()
    grid = cond.domain
    base, fixed = plate_field(cond)
    free = np.flatnonzero(~fixed)
    params = EnergyParams(p, eps)
    energy = FreeEnergy(grid, free, base, params)
    rng = np.random.default_rng(21)
    fields = [base]
    for _ in range(3):
        u = base.copy()
        u[free] = rng.uniform(-0.5, 1.5, free.size)
        fields.append(u)
    for u in fields:
        x = u[free]
        assert np.array_equal(energy.field(x), u)
        assert energy.value(x) == energy_value(u, grid, params)
        assert energy.value(x, 2.0) == energy_value(u, grid, EnergyParams(2.0, eps))
        assert energy.value(x) == energy_value(u, grid, params)


FIELD_CONDENSERS = {
    "criterion-1": lambda: make_ring_condenser((0.0, 0.0), 1.0, math.e, qcap.capacity.ring_grid(2, 3.0, 256)),
    "criterion-2": lambda: make_ring_condenser((0.0,) * 3, 1.0, 2.0, qcap.capacity.ring_grid(3, 2.5, 64)),
    "criterion-3": lambda: make_ring_condenser((0.0, 0.0), 1.0, 2.0, qcap.capacity.ring_grid(2, 2.5, 256)),
    "masked-hole": masked_ring_condenser,
    "sharing-faces": sharing_faces_condenser,
}


@pytest.mark.parametrize(
    "name, p",
    [
        ("criterion-1", 2.0),
        ("criterion-2", 2.0),
        ("criterion-3", 1.5),
        ("masked-hole", 2.0),
        ("masked-hole", 1.5),
        ("sharing-faces", 2.0),
        ("sharing-faces", 3.0),
    ],
)
def test_result_field_has_the_result_value(name, p):
    # the result carries the field whose energy is its value, in [0, 1],
    # 0 on E and 1 on F
    cond = FIELD_CONDENSERS[name]()
    res = solve_capacity(cond, p)
    assert res.converged
    assert res.field.shape == (cond.domain.inside_count,)
    assert energy_value(res.field, cond.domain, EnergyParams(p, res.final_eps)) == res.value
    assert res.field.min() >= 0.0 and res.field.max() <= 1.0
    assert (res.field[cond.e_indices] == 0.0).all() and (res.field[cond.f_indices] == 1.0).all()


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_ring_condenser((0.0, 0.0), 1.0, 2.0, GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)),
        lambda: make_ring_condenser((0.0,) * 3, 1.0, 2.0, GridDomain.box(3, (-2.5,) * 3, (24,) * 3, 5.0 / 24)),
        masked_ring_condenser,
        sharing_faces_condenser,
    ],
    ids=["ring-2d-64", "ring-3d-24", "masked-hole", "sharing-faces"],
)
def test_distance_init_is_the_hop_ratio(make):
    # the frontier-BFS start of the reference equals the ratio of the two
    # graph_distance searches, holes and shared faces included
    cond = make()
    de = graph_distance(cond.domain, cond.E)
    df = graph_distance(cond.domain, cond.F)
    assert (de >= 0).all() and (df >= 0).all()
    assert np.array_equal(distance_init(cond), de / (de + df))


def test_energy_history_monotone_within_stage():
    g = GridDomain.box(2, (-2.5, -2.5), (48, 48), 5.0 / 48)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, 2.0)
    assert res.converged
    hist = np.asarray(res.energy_history)
    eps = np.asarray(res.history_eps)
    assert hist.shape == eps.shape
    for stage in np.unique(eps):
        seg = hist[eps == stage]
        assert (np.diff(seg) <= 1e-12 * np.maximum(1.0, np.abs(seg[:-1]))).all()
    # final recorded energy equals the reported value
    assert hist[-1] == pytest.approx(res.value, rel=1e-12)


def test_exhausted_budget_reports_nonconvergence():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, 2.0, SolverOptions(max_iterations=5))
    assert not res.converged
    assert res.iterations == 5


def test_solve_ring_and_calibration():
    bench = RingBenchmark(2, 2.0, 1.0, 2.0, 2.5, (32, 48))
    res = solve_ring(2, 2.0, 1.0, 2.0, 2.5, 48)
    assert res.converged
    exact = ring_capacity_exact(2, 2.0, 1.0, 2.0)
    assert abs(res.value - exact) / exact < 0.12
    report = calibrate_discretization((bench,))
    assert len(report["runs"]) == 2
    assert report["tau_disc"] > 0
    coarse, fine = report["runs"]
    assert coarse["rel_error"] > fine["rel_error"]
    assert report["refinement_ratios"][0] == pytest.approx(
        coarse["rel_error"] / fine["rel_error"]
    )


def test_p2_ring_observed_order():
    # cut-face plates make the p = 2 ring capacity second-order in h
    exact = ring_capacity_exact(2, 2.0, 1.0, 2.0)
    errors = [abs(solve_ring(2, 2.0, 1.0, 2.0, 2.5, res).value - exact) / exact for res in (32, 48)]
    order = math.log(errors[0] / errors[1]) / math.log(48 / 32)
    assert order >= 1.8


def dense_hessian(grid, free, params):
    """The p = 2 Hessian on the free cells, assembled column by column from
    the energy gradient (linear at p = 2)."""
    h1 = np.zeros((free.size, free.size))
    for j, i in enumerate(free):
        unit = np.zeros(grid.inside_count)
        unit[i] = 1.0
        h1[:, j] = energy_gradient(unit, grid, params)[free]
    return h1


def dense_free_system(cond, eps=1e-4):
    """(H1, rhs, free): the p = 2 free-block Hessian and -grad at the plate field."""
    grid = cond.domain
    fixed = np.zeros(grid.inside_count, dtype=bool)
    fixed[cond.e_indices] = True
    fixed[cond.f_indices] = True
    free = np.flatnonzero(~fixed)
    params = EnergyParams(2.0, eps)
    base = np.zeros(grid.inside_count)
    base[cond.f_indices] = 1.0
    return dense_hessian(grid, free, params), -energy_gradient(base, grid, params)[free], free


def dense_capacity(cond, eps=1e-4):
    """Energy of the field np.linalg.solve gives for the p = 2 free-block system."""
    h1, rhs, free = dense_free_system(cond, eps)
    u = np.zeros(cond.domain.inside_count)
    u[cond.f_indices] = 1.0
    u[free] = np.linalg.solve(h1, rhs)
    return energy_value(u, cond.domain, EnergyParams(2.0, eps))


def black_eliminated_energy(cond, eps=1e-4):
    """Energy of the plate field with each free cell of odd index sum set to
    its own minimizer, the others held at 0."""
    h1, rhs, free = dense_free_system(cond, eps)
    black = np.sum(np.unravel_index(np.flatnonzero(cond.domain.mask)[free], cond.domain.cells), axis=0) % 2 == 1
    u = np.zeros(cond.domain.inside_count)
    u[cond.f_indices] = 1.0
    u[free[black]] = rhs[black] / np.diag(h1)[black]
    return energy_value(u, cond.domain, EnergyParams(2.0, eps))


def test_p2_solve_matches_direct_solve():
    # the p = 2 conjugate-gradient solve against a dense solve of the same
    # quadratic, assembled column by column from the energy gradient
    g = GridDomain.box(2, (-1.5, -1.5), (20, 20), 0.15)
    cond = make_ring_condenser((0.1, 0.0), 0.4, 1.3, g)
    res = solve_capacity(cond, 2.0, TIGHT)
    assert res.converged
    assert res.final_eps == 1e-4
    assert res.value == pytest.approx(dense_capacity(cond), rel=1e-10)


def masked_ball_condenser_3d():
    """Ring (0.4, 0.9) off the centre of a 12^3 grid masked to a ball of radius 1.15."""
    g = GridDomain.box(3, (-1.2,) * 3, (12,) * 3, 0.2, Ball((0.0,) * 3, 1.15))
    return make_ring_condenser((0.05, -0.03, 0.0), 0.4, 0.9, g)


@pytest.mark.parametrize(
    "make",
    [masked_ring_condenser, masked_ball_condenser_3d, sharing_faces_condenser],
    ids=["masked-2d", "masked-3d", "sharing-faces"],
)
def test_p2_red_black_solve_matches_dense_solve(make):
    # the solve on the red cells, with the black cells eliminated, against a
    # dense solve of the whole free block, on grids with cut faces
    cond = make()
    if make is not sharing_faces_condenser:
        assert any(flat.size for flat, _ in cond.domain.cut_faces)
    res = solve_capacity(cond, 2.0)
    assert res.converged
    assert res.value == pytest.approx(dense_capacity(cond), rel=SolverOptions().rel_tol)
    # the history starts after the black elimination and ends at the value
    assert res.energy_history[0] == pytest.approx(black_eliminated_energy(cond), rel=1e-12)
    assert (np.diff(res.energy_history) <= 0).all()
    assert res.energy_history[-1] == pytest.approx(res.value, rel=1e-12)


@st.composite
def masked_grids_with_free_cells(draw):
    """A random face-connected mask with one embedded ball plate, and a random
    free set that includes plate cells, so that cut faces join free cells."""
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = tuple(int(c) for c in rng.integers(3, 10 if n == 2 else 6, size=n))
    keep = rng.uniform(size=cells) < 0.85
    labels, count = ndimage.label(keep, ndimage.generate_binary_structure(n, 1))
    assume(count > 0)
    mask = labels == np.bincount(labels.ravel())[1:].argmax() + 1
    assume(mask.sum() >= 2)
    grid = GridDomain(n, (0.0,) * n, cells, 0.5, mask)
    plate = Ball(tuple(rng.uniform(0.0, 0.5 * c) for c in cells), float(rng.uniform(0.3, 1.5)))
    grid = grid.with_plates(((rasterize(plate, grid), plate),))
    free = np.flatnonzero(rng.uniform(size=grid.inside_count) < 0.75)
    assume(free.size > 0)
    return grid, free


@settings(max_examples=60, deadline=None)
@given(masked_grids_with_free_cells())
def test_red_black_split_is_the_dense_schur_complement(case):
    grid, free = case
    params = EnergyParams(2.0, 1e-3)
    rng = np.random.default_rng(free.size)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    # the rounded field labels the fixed cells E or F, so E-F faces are kept too
    energy = FreeEnergy(grid, free, np.round(u), params)
    grad, diag, coupling, red = energy.red_black(u[free])
    black = ~red
    # every face with two free ends joins a red and a black cell
    a, b = grid.face_pairs
    pos = np.full(grid.inside_count, -1)
    pos[free] = np.arange(free.size)
    both = (pos[a] >= 0) & (pos[b] >= 0)
    assert (red[pos[a[both]]] != red[pos[b[both]]]).all()
    # the blocks of H1, assembled from the energy gradient
    h1 = dense_hessian(grid, free, params)
    assert np.array_equal(grad, energy_gradient(energy.field(u[free]), grid, params)[free])
    np.testing.assert_allclose(diag, np.diag(h1), rtol=1e-12)
    np.testing.assert_allclose(coupling.toarray(), h1[np.ix_(red, black)], rtol=1e-12, atol=0)
    assert np.count_nonzero(h1[np.ix_(red, red)] - np.diag(diag[red])) == 0
    # the reduced operator's product is the dense Schur complement's
    h_rb = h1[np.ix_(red, black)]
    schur = h1[np.ix_(red, red)] - h_rb @ np.linalg.solve(h1[np.ix_(black, black)], h_rb.T)
    v = rng.normal(size=int(red.sum()))
    got = qcap.capacity._reduced_operator(diag[red], coupling, 1.0 / diag[black])(v)
    scale = np.abs(diag[red]).max(initial=0.0) * np.abs(v).max(initial=0.0)
    np.testing.assert_allclose(got, schur @ v, rtol=1e-10, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "n, r2, half, cells, most",
    [(2, math.e, 3.0, 256, 100), (3, 2.0, 2.5, 64, 36)],
    ids=["criterion-1", "criterion-2"],
)
def test_p2_reduced_cg_step_counts(n, r2, half, cells, most):
    # Jacobi CG on the whole free block took 174 and 58 steps
    res = solve_ring(n, 2.0, 1.0, r2, half, cells)
    assert res.converged
    assert res.iterations == res.cg_steps <= most


# The reference's own continuation: each stage warm-starts the next.
REFERENCE_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)


def reference_capacity(cond, p, opts=TIGHT):
    """L-BFGS-B reference on the box [0, 1] through ``REFERENCE_EPS_SCHEDULE``
    on the same energy."""
    grid = cond.domain
    fixed = np.zeros(grid.inside_count, dtype=bool)
    fixed[cond.e_indices] = True
    fixed[cond.f_indices] = True
    free = np.flatnonzero(~fixed)
    u = distance_init(cond)

    def assemble(x):
        out = u.copy()
        out[free] = x
        return out

    for eps in REFERENCE_EPS_SCHEDULE:
        params = EnergyParams(p, eps)
        res = minimize(
            lambda x: energy_value(assemble(x), grid, params),
            u[free],
            jac=lambda x: energy_gradient(assemble(x), grid, params)[free],
            method="L-BFGS-B",
            bounds=Bounds(0.0, 1.0),
            options={"ftol": opts.rel_tol, "gtol": 1e-12},
        )
        assert res.success
        u = assemble(res.x)
    return res.fun


@pytest.mark.parametrize(
    "n,p,cells",
    [(2, 1.5, 32), (3, 3.0, 14)],
)
def test_newton_matches_lbfgsb_reference(n, p, cells):
    # the Newton value is the reference value at the final eps, and never
    # above it by more than rounding (on the 3D ring both reach the same minimum)
    g = GridDomain.box(n, (-2.5,) * n, (cells,) * n, 5.0 / cells)
    cond = make_ring_condenser((0.0,) * n, 1.0, 2.0, g)
    res = solve_capacity(cond, p)
    assert res.converged
    assert res.final_eps == 1e-4
    ref = reference_capacity(cond, p)
    assert res.value <= ref * (1 + 4 * np.finfo(float).eps)
    assert res.value == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_solver_eps_is_the_solve_eps(p, monkeypatch):
    # every entry of the history and the value are at the one eps set; the
    # last evaluated field is the result's field
    fields = record_values(monkeypatch)
    g = GridDomain.box(2, (-2.5, -2.5), (24, 24), 5.0 / 24)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, p, SolverOptions(eps=1e-3))
    assert res.converged
    assert res.final_eps == 1e-3
    assert res.history_eps == [1e-3] * len(res.energy_history)
    assert res.value == energy_value(fields[-1], cond.domain, EnergyParams(p, 1e-3))
    assert np.array_equal(fields[-1], res.field)
    assert res.value == energy_value(res.field, cond.domain, EnergyParams(p, 1e-3))


def test_all_plate_condenser_takes_no_steps():
    # no cell is free: the common path runs on empty vectors
    g = GridDomain.box(2, (0.0, 0.0), (2, 3), 1.0)
    e = np.zeros(g.cells, dtype=bool)
    e[0, :] = True
    cond = Condenser(e, ~e, g)
    for p in (1.05, 1.5, 2.0, 3.0):
        res = solve_capacity(cond, p, SolverOptions(eps=1e-3))
        assert res.converged and res.iterations == 0
        assert res.cg_steps == 0 and res.decrement == 0.0
        assert res.energy_history == [res.value] and res.history_eps == [1e-3]
        assert res.value == energy_value(cond.F[g.mask].astype(float), g, EnergyParams(p, 1e-3))
        assert np.array_equal(res.field, cond.F[g.mask].astype(float))


def test_newton_budget_reports_nonconvergence():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, 1.5, SolverOptions(max_iterations=3))
    assert not res.converged
    assert res.iterations == 3
    assert math.isfinite(res.value)
    assert len(res.energy_history) == 4


@pytest.mark.parametrize("p", [1.05, 10.0])
def test_newton_hard_exponents(p, monkeypatch):
    # every field the solver evaluates lies in [0, 1], the last one is the
    # final field, and each stage's energy trace is monotone
    fields = record_values(monkeypatch)
    g = GridDomain.box(2, (-2.5, -2.5), (32, 32), 5.0 / 32)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, p)
    assert res.converged
    assert math.isfinite(res.value) and res.value > 0
    assert all(u.min() >= 0.0 and u.max() <= 1.0 for u in fields)
    assert energy_value(fields[-1], cond.domain, EnergyParams(p, res.final_eps)) == res.value
    assert np.array_equal(fields[-1], res.field)
    hist = np.asarray(res.energy_history)
    eps = np.asarray(res.history_eps)
    for stage in np.unique(eps):
        assert (np.diff(hist[eps == stage]) <= 0).all()


def ring_48_condenser():
    return make_ring_condenser((0.0, 0.0), 1.0, 2.0, GridDomain.box(2, (-2.5, -2.5), (48, 48), 5.0 / 48))


START_CONDENSERS = {
    "ring-48": ring_48_condenser,
    "masked-hole": masked_ring_condenser,
    "sharing-faces": sharing_faces_condenser,
}
# Newton steps from the p = 2 start, and from the face-hop ratio
# d_E / (d_E + d_F) that it replaced.  At p = 1.05 the masked and the
# shared-face condensers take more steps from the p = 2 start.
START_STEPS = {
    "ring-48": {1.05: (10, 16), 1.2: (9, 10), 1.5: (5, 7), 3.0: (5, 8), 6.0: (7, 14), 10.0: (8, 21)},
    "masked-hole": {1.05: (11, 10), 1.2: (9, 9), 1.5: (6, 8), 3.0: (5, 7), 6.0: (9, 11), 10.0: (13, 16)},
    "sharing-faces": {1.05: (19, 13), 1.2: (9, 9), 1.5: (5, 7), 3.0: (5, 7), 6.0: (7, 10), 10.0: (10, 12)},
}


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 3.0, 6.0, 10.0])
@pytest.mark.parametrize("name", list(START_CONDENSERS))
def test_newton_starts_from_the_p2_minimizer(name, p, monkeypatch):
    # the start is the p = 2 solve's field clipped to [0, 1]; every field
    # the solve evaluates lies in [0, 1], and the value is within rel_tol
    # of a tight re-solve
    fields = record_values(monkeypatch)
    cond = START_CONDENSERS[name]()
    harmonic = solve_capacity(cond, 2.0)
    assert harmonic.converged and harmonic.iterations < qcap.capacity.NEWTON_CG_STEPS
    assert np.array_equal(fields[-1], harmonic.field)
    start = np.clip(harmonic.field, 0.0, 1.0)
    fields.clear()
    res = solve_capacity(cond, p)
    assert res.converged
    assert all(u.min() >= 0.0 and u.max() <= 1.0 for u in fields)
    assert res.energy_history[0] == energy_value(start, cond.domain, EnergyParams(p, res.final_eps))
    tight = solve_capacity(cond, p, SolverOptions(rel_tol=1e-15))
    assert res.value == pytest.approx(tight.value, rel=SolverOptions().rel_tol)
    assert res.iterations == START_STEPS[name][p][0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", list(START_CONDENSERS))
def test_solve_sweeps_the_grid_only_in_newton_derivatives(name, p, monkeypatch):
    # no solve makes a full-grid cell_gradient_sq sweep: every g, the Newton
    # steps' included, comes from FreeEnergy's face pass
    sweep, sweeps = qcap.energy.cell_gradient_sq, []

    def counting_sweep(u, grid):
        sweeps.append(grid)
        return sweep(u, grid)

    monkeypatch.setattr(qcap.energy, "cell_gradient_sq", counting_sweep)
    res = solve_capacity(START_CONDENSERS[name](), p)
    assert res.converged and res.iterations > 0
    assert sweeps == []


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", list(START_CONDENSERS))
def test_solve_passes_plate_fields_off_free(name, p, monkeypatch):
    # a solve hands value, derivatives and red_black only vectors of one
    # value per free cell, so FreeEnergy fills in the plate field off them
    shapes = {"value": [], "derivatives": [], "red_black": []}
    for method, seen in shapes.items():
        original = getattr(FreeEnergy, method)

        def recording(self, x, *args, original=original, seen=seen):
            seen.append(np.shape(x))
            return original(self, x, *args)

        monkeypatch.setattr(FreeEnergy, method, recording)
    cond = START_CONDENSERS[name]()
    res = solve_capacity(cond, p)
    assert res.converged
    assert len(shapes["red_black"]) == 1
    assert len(shapes["derivatives"]) == (0 if p == 2 else res.iterations)
    assert shapes["value"]
    _, fixed = plate_field(cond)
    assert all(shape == (np.count_nonzero(~fixed),) for seen in shapes.values() for shape in seen)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_hessian_pattern_built_once_per_solve(p, monkeypatch):
    # every Hessian of one solve is filled on the same free-cell pattern
    calls = []

    def counting(grid, free, base, params):
        calls.append(free.size)
        return FreeEnergy(grid, free, base, params)

    monkeypatch.setattr(qcap.capacity, "FreeEnergy", counting)
    g = GridDomain.box(2, (-2.5, -2.5), (32, 32), 5.0 / 32)
    res = solve_capacity(make_ring_condenser((0.0, 0.0), 1.0, 2.0, g), p)
    assert res.converged and res.iterations > 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n, p, cells, cap",
    [(3, 2.0, 64, 22.0e6), (2, 1.5, 256, 10.3e6)],
    ids=["criterion-2", "criterion-3"],
)
def test_solve_memory(n, p, cells, cap):
    # tracemalloc peaks: criterion 2 17.6 MB, 22.5 with the int64 face ends
    # and grid map of the set-up, 36.1 with the full face list built before
    # FreeEnergy selects its faces; criterion 3 8.9 MB, 9.4 with the int64
    # set-up, 11.5 with the face list, 14.2 with each Newton step's Hessian
    # kept until the next one is built
    tracemalloc.start()
    try:
        solve_ring(n, p, 1.0, 2.0, 2.5, cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("name", list(START_CONDENSERS))
def test_solve_builds_no_face_list(name, p):
    # a solve finds its cut faces and kept faces by per-axis slices of the
    # grid: the full face list is never built
    cond = START_CONDENSERS[name]()
    res = solve_capacity(cond, p)
    assert res.converged
    assert any(flat.size for flat, _ in cond.domain.cut_faces)
    assert "face_pairs" not in cond.domain.__dict__


@pytest.mark.parametrize(
    "n, p, cells, value, steps",
    [(2, 1.5, 48, 9.107293745254049, 5), (3, 3.0, 12, 21.511638045715973, 5)],
    ids=["2d-48-p1.5", "3d-12-p3"],
)
def test_newton_reproduces_recorded_values(n, p, cells, value, steps):
    # values recorded from the face-scatter Hessian products that the
    # sparse-matrix products replaced; from the hop-ratio start both solves
    # took 7 Newton steps
    res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
    assert res.converged
    assert res.iterations == steps
    assert res.value == pytest.approx(value, rel=1e-12)


def test_certifying_newton_step_stops_early():
    # criterion 3: the same value with the last inner CG stopped by its
    # decrement estimate (733 CG steps at the forcing tolerance); 6 Newton
    # steps from the p = 2 start against 8 from the hop ratio
    res = solve_ring(2, 1.5, 1.0, 2.0, 2.5, 256)
    assert res.converged
    assert res.iterations == 6
    assert res.value == pytest.approx(8.929512318680647, rel=1e-12)
    assert res.cg_steps <= 480
    assert 0 <= res.decrement <= SolverOptions().rel_tol * res.value


@pytest.mark.parametrize("n, p, cells", [(2, 1.5, 64), (2, 3.0, 48), (3, 2.5, 16)])
def test_decrement_exit_fires_only_on_the_last_step(n, p, cells, monkeypatch):
    # each inner CG of a Newton step is run again to the forcing tolerance
    # alone: every step but the last takes exactly as many CG steps, the
    # last one fewer.  One CG on the red cells, the p = 2 start, comes first.
    pcg = qcap.capacity._pcg
    calls = []

    def recording(apply, rhs, inv_diag, max_steps, stop):
        out = pcg(apply, rhs, inv_diag, max_steps, stop)
        norm = float(np.linalg.norm(rhs))
        tol = min(0.1, norm) * norm
        forcing = pcg(apply, rhs, inv_diag, max_steps, lambda _a, _rz, r: qcap.capacity._dot(r, r) <= tol * tol)
        calls.append((rhs.size, out[1], forcing[1]))
        return out

    monkeypatch.setattr(qcap.capacity, "_pcg", recording)
    res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
    assert res.converged
    (red, start, _), *newton = calls
    assert len(newton) == res.iterations
    assert all(size == newton[0][0] > red for size, _, _ in newton)
    counts = [(used, forcing) for _, used, forcing in newton]
    assert all(used == forcing for used, forcing in counts[:-1])
    assert counts[-1][0] < counts[-1][1]
    assert res.cg_steps == start + sum(used for used, _ in counts)


@pytest.mark.parametrize(
    "n, p, cells, value, steps",
    [
        (2, 1.05, 64, 8.12614487912372, 10),
        (2, 1.2, 64, 8.75361471019053, 9),
        (2, 3.0, 64, 8.85266477685342, 5),
        (2, 6.0, 64, 8.144443125370726, 7),
        (3, 2.5, 24, 24.62791850365102, 4),
    ],
    ids=["2d-64-p1.05", "2d-64-p1.2", "2d-64-p3", "2d-64-p6", "3d-24-p2.5"],
)
def test_newton_keeps_forcing_tolerance_values(n, p, cells, value, steps):
    # values recorded with every inner CG run to the forcing tolerance; the
    # step counts are from the p = 2 start (from the hop ratio: 10, 9, 7,
    # 11 and 6)
    res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
    assert res.converged
    assert res.iterations == steps
    assert res.value == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize(
    "p, value, steps",
    [(1.5, 6.210049319717511, 5), (2.0, 21.26007194694121, 79), (3.0, 289.15905463491237, 5)],
    ids=["p1.5", "p2", "p3"],
)
def test_plates_sharing_faces(p, value, steps):
    # the energy counts the shared faces, the free-cell derivatives leave
    # them out; values and step counts (Newton for p != 2; reduced CG on the
    # red cells for p = 2).  p = 1.5 was recorded from full-grid gradients;
    # p = 3 from the p = 2 start, 1.6e-13 from a rel_tol 1e-15 re-solve
    # where the hop-ratio start's 289.15905463583204 was 3.3e-12 away
    res = solve_capacity(sharing_faces_condenser(), p)
    assert res.converged
    assert res.iterations == steps
    assert res.value == pytest.approx(value, rel=1e-12)


def test_solve_counters():
    # p = 2: one CG step per iteration, decrement the drop over the last 10
    res = solve_ring(2, 2.0, 1.0, 2.0, 2.5, 48)
    assert res.cg_steps == res.iterations
    assert res.decrement == res.energy_history[-11] - res.energy_history[-1]
    assert res.decrement <= SolverOptions().rel_tol * res.value
    # p != 2: the decrement test the solve ended on
    res = solve_ring(2, 1.5, 1.0, 2.0, 2.5, 48)
    assert res.cg_steps >= res.iterations
    assert 0 <= res.decrement <= SolverOptions().rel_tol * res.energy_history[-2]
    # an unconverged solve reports a decrement above its threshold
    res = solve_ring(2, 1.5, 1.0, 2.0, 2.5, 48, SolverOptions(max_iterations=2))
    assert not res.converged and res.decrement > SolverOptions().rel_tol * res.energy_history[-2]
    # the counters default for results built without them
    bare = qcap.capacity.CapacityResult(1.0, 0, 1e-4, [1.0], True)
    assert (bare.cg_steps, bare.decrement) == (0, 0.0)


def test_ring_benchmark_validation():
    with pytest.raises(DomainError):
        RingBenchmark(2, 2.0, 1.0, 2.0, 1.5, (32,))  # half must exceed r2
    # the closed form has dimensions 2 and 3 only, and a NaN or infinite box
    # has no grid: each failed only later, in calibrate_discretization
    for n in [2.5, 4, 1]:
        with pytest.raises(DomainError, match="dimensions"):
            RingBenchmark(n, 2.0, 1.0, 2.0, 2.5, (8,))
    for half in [math.nan, math.inf]:
        with pytest.raises(DomainError, match="outer sphere"):
            RingBenchmark(2, 2.0, 1.0, 2.0, half, (8,))
    # a benchmark with no resolution calibrates nothing (tau_disc 0.0 from no run), and one
    # cell per axis leaves no free cell between the plates
    for resolutions in [(), (1,), (16, 1)]:
        with pytest.raises(DomainError, match="resolutions"):
            RingBenchmark(2, 2.0, 1.0, 2.0, 2.5, resolutions)
