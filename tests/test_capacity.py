"""Capacity solver, ring closed forms, and the discretization calibration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import Bounds, minimize

from qcap import (
    Ball,
    Condenser,
    DomainError,
    GridDomain,
    RingBenchmark,
    SolverOptions,
    accessibility_lower_bound,
    calibrate_discretization,
    make_ring_condenser,
    rasterize,
    ring_capacity_exact,
    solve_capacity,
    solve_ring,
)
import qcap.capacity
from qcap.capacity import _distance_init
from qcap.energy import EnergyParams, FreeEnergy, energy_gradient, energy_value
from qcap.grid import Box, Complement

TIGHT = SolverOptions(rel_tol=1e-13)


def test_solver_options_validation():
    SolverOptions()
    with pytest.raises(DomainError):
        SolverOptions(max_iterations=0)
    with pytest.raises(DomainError):
        SolverOptions(rel_tol=0.0)
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


def test_accessibility_lower_bound():
    val = accessibility_lower_bound(0.4, 0.9, 2.0, 2.0, 2)
    assert val == pytest.approx(0.4 / 2.0, rel=1e-14)
    with pytest.raises(DomainError):
        accessibility_lower_bound(0.4, 0.9, 2.0, 2.5, 2)  # p outside (n-1, n]
    with pytest.raises(DomainError):
        accessibility_lower_bound(-0.1, 0.9, 2.0, 2.0, 2)
    with pytest.raises(DomainError):
        accessibility_lower_bound(0.4, 0.9, 0.0, 2.0, 2)


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


def test_distance_init_profile():
    g = GridDomain.box(2, (-2.0, -2.0), (32, 32), 0.125)
    cond = make_ring_condenser((0.0, 0.0), 0.8, 1.6, g)
    u0 = _distance_init(cond)
    assert u0.shape == (g.inside_count,)
    assert (u0 >= 0.0).all() and (u0 <= 1.0).all()
    assert (u0[cond.e_indices] == 0.0).all()
    assert (u0[cond.f_indices] == 1.0).all()


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


def test_p2_solve_matches_direct_solve():
    # the p = 2 conjugate-gradient solve against a dense solve of the same
    # quadratic, assembled column by column from the energy gradient
    g = GridDomain.box(2, (-1.5, -1.5), (20, 20), 0.15)
    cond = make_ring_condenser((0.1, 0.0), 0.4, 1.3, g)
    grid = cond.domain
    fixed = np.zeros(g.inside_count, dtype=bool)
    fixed[cond.e_indices] = True
    fixed[cond.f_indices] = True
    free = np.flatnonzero(~fixed)
    params = EnergyParams(2.0, 1e-4)
    cols = []
    for i in free:
        unit = np.zeros(g.inside_count)
        unit[i] = 1.0
        cols.append(energy_gradient(unit, grid, params)[free])
    base = np.zeros(g.inside_count)
    base[cond.f_indices] = 1.0
    u = base.copy()
    u[free] = np.linalg.solve(np.array(cols).T, -energy_gradient(base, grid, params)[free])
    res = solve_capacity(cond, 2.0, TIGHT)
    assert res.converged
    assert res.final_eps == 1e-4
    assert res.value == pytest.approx(energy_value(u, grid, params), rel=1e-10)


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
    u = _distance_init(cond)

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
    # every entry of the history and the value are at the one eps set
    fields = []

    def recording(u, grid, params):
        fields.append(u.copy())
        return energy_value(u, grid, params)

    monkeypatch.setattr(qcap.capacity, "energy_value", recording)
    g = GridDomain.box(2, (-2.5, -2.5), (24, 24), 5.0 / 24)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, p, SolverOptions(eps=1e-3))
    assert res.converged
    assert res.final_eps == 1e-3
    assert res.history_eps == [1e-3] * len(res.energy_history)
    assert res.value == energy_value(fields[-1], cond.domain, EnergyParams(p, 1e-3))


def test_all_plate_condenser_takes_no_steps():
    g = GridDomain.box(2, (0.0, 0.0), (2, 3), 1.0)
    e = np.zeros(g.cells, dtype=bool)
    e[0, :] = True
    cond = Condenser(e, ~e, g)
    for p in (1.5, 2.0):
        res = solve_capacity(cond, p, SolverOptions(eps=1e-3))
        assert res.converged and res.iterations == 0
        assert res.energy_history == [res.value] and res.history_eps == [1e-3]
        assert res.value == energy_value(cond.F[g.mask].astype(float), g, EnergyParams(p, 1e-3))


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
    fields = []

    def recording(u, grid, params):
        fields.append(u.copy())
        return energy_value(u, grid, params)

    monkeypatch.setattr(qcap.capacity, "energy_value", recording)
    g = GridDomain.box(2, (-2.5, -2.5), (32, 32), 5.0 / 32)
    cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    res = solve_capacity(cond, p)
    assert res.converged
    assert math.isfinite(res.value) and res.value > 0
    assert all(u.min() >= 0.0 and u.max() <= 1.0 for u in fields)
    assert energy_value(fields[-1], cond.domain, EnergyParams(p, res.final_eps)) == res.value
    hist = np.asarray(res.energy_history)
    eps = np.asarray(res.history_eps)
    for stage in np.unique(eps):
        assert (np.diff(hist[eps == stage]) <= 0).all()


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_hessian_pattern_built_once_per_solve(p, monkeypatch):
    # every Hessian of one solve is filled on the same free-cell pattern
    calls = []

    def counting(grid, free, params):
        calls.append(free.size)
        return FreeEnergy(grid, free, params)

    monkeypatch.setattr(qcap.capacity, "FreeEnergy", counting)
    g = GridDomain.box(2, (-2.5, -2.5), (32, 32), 5.0 / 32)
    res = solve_capacity(make_ring_condenser((0.0, 0.0), 1.0, 2.0, g), p)
    assert res.converged and res.iterations > 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n, p, cells, value, steps",
    [(2, 1.5, 48, 9.107293745254049, 7), (3, 3.0, 12, 21.511638045715973, 7)],
)
def test_newton_reproduces_recorded_values(n, p, cells, value, steps):
    # values and Newton step counts recorded from the face-scatter Hessian
    # products that the sparse-matrix products replaced
    res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
    assert res.converged
    assert res.iterations == steps
    assert res.value == pytest.approx(value, rel=1e-12)


def test_certifying_newton_step_stops_early():
    # criterion 3: the same 8 Newton steps and value, with the last inner CG
    # stopped by its decrement estimate (733 CG steps at the forcing tolerance)
    res = solve_ring(2, 1.5, 1.0, 2.0, 2.5, 256)
    assert res.converged
    assert res.iterations == 8
    assert res.value == pytest.approx(8.929512318680647, rel=1e-12)
    assert res.cg_steps <= 480
    assert 0 <= res.decrement <= SolverOptions().rel_tol * res.value


@pytest.mark.parametrize("n, p, cells", [(2, 1.5, 64), (2, 3.0, 48), (3, 2.5, 16)])
def test_decrement_exit_fires_only_on_the_last_step(n, p, cells, monkeypatch):
    # each inner CG is run again to the forcing tolerance alone: every step
    # but the last takes exactly as many CG steps, the last one fewer
    pcg = qcap.capacity._pcg
    counts = []

    def recording(apply, rhs, inv_diag, max_steps, stop):
        out = pcg(apply, rhs, inv_diag, max_steps, stop)
        norm = float(np.linalg.norm(rhs))
        tol = min(0.1, norm) * norm
        forcing = pcg(apply, rhs, inv_diag, max_steps, lambda _a, _rz, r: qcap.capacity._dot(r, r) <= tol * tol)
        counts.append((out[1], forcing[1]))
        return out

    monkeypatch.setattr(qcap.capacity, "_pcg", recording)
    res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
    assert res.converged
    assert len(counts) == res.iterations
    assert all(used == forcing for used, forcing in counts[:-1])
    assert counts[-1][0] < counts[-1][1]
    assert res.cg_steps == sum(used for used, _ in counts)


@pytest.mark.parametrize(
    "n, p, cells, value, steps",
    [
        (2, 1.05, 64, 8.12614487912372, 10),
        (2, 1.2, 64, 8.75361471019053, 9),
        (2, 3.0, 64, 8.85266477685342, 7),
        (2, 6.0, 64, 8.144443125370726, 11),
        (3, 2.5, 24, 24.62791850365102, 6),
    ],
)
def test_newton_keeps_forcing_tolerance_values(n, p, cells, value, steps):
    # values and Newton step counts recorded with every inner CG run to the
    # forcing tolerance
    res = solve_ring(n, p, 1.0, 2.0, 2.5, cells)
    assert res.converged
    assert res.iterations == steps
    assert res.value == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize(
    "p, value, steps",
    [(1.5, 6.210049319717511, 7), (2.0, 21.26007194750738, 147), (3.0, 289.15905463583204, 7)],
)
def test_plates_sharing_faces(p, value, steps):
    # E and F touch along a row of faces, fixed at both ends with a
    # difference of 1: the energy counts them, the free-cell derivatives
    # leave them out; values and step counts (Newton for p != 2, CG for
    # p = 2) recorded from full-grid gradients
    g = GridDomain.box(2, (0.0, 0.0), (40, 40), 0.05)
    e_region = Box((0.0, 0.0), (1.0, 0.5))
    e = rasterize(e_region, g)
    f = rasterize(Box((0.0, 0.51), (1.0, 1.0)), g) & ~e
    res = solve_capacity(Condenser(e, f, g, region_e=e_region), p)
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
