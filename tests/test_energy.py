"""Discrete p-Dirichlet energy: values, gradients, invariances."""

import numpy as np
import pytest

from qcap import (
    Ball,
    Condenser,
    DomainError,
    EnergyParams,
    GridDomain,
    ScalarField,
    SingularityError,
    make_ring_condenser,
    p_energy,
    p_energy_gradient,
    project_admissible,
    rasterize,
)
import qcap.energy
from qcap.energy import FreeEnergy, energy_gradient
from qcap.grid import Complement


def loop_energy(u_flat, grid, p, eps):
    """Face-by-face reference implementation with explicit python loops."""
    full = np.full(grid.cells, np.nan)
    full[grid.mask] = u_flat
    idx = grid.inside_index
    g = np.zeros(grid.inside_count)
    for cell in np.ndindex(*grid.cells):
        if not grid.mask[cell]:
            continue
        for axis in range(grid.n):
            nb = list(cell)
            nb[axis] += 1
            nb = tuple(nb)
            if nb[axis] < grid.cells[axis] and grid.mask[nb]:
                d2 = ((full[nb] - full[cell]) / grid.h) ** 2
                g[idx[cell]] += 0.5 * d2
                g[idx[nb]] += 0.5 * d2
    return float(np.sum((g + eps**2) ** (p / 2)) * grid.h**grid.n)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.uniform(-1.0, 2.0, size=grid.inside_count))


@pytest.fixture
def masked_grid():
    return GridDomain.box(2, (-1.0, -1.0), (12, 12), 2.0 / 12, Ball((0.0, 0.0), 0.95))


def test_params_validation():
    EnergyParams(1.5, 0.0)
    with pytest.raises(DomainError):
        EnergyParams(1.0)
    with pytest.raises(DomainError):
        EnergyParams(2.0, -0.1)


def test_field_validation(masked_grid):
    with pytest.raises(DomainError):
        ScalarField(masked_grid, np.zeros(3))
    bad = np.zeros(masked_grid.inside_count)
    bad[0] = np.inf
    with pytest.raises(DomainError):
        ScalarField(masked_grid, bad)
    u = ScalarField.from_function(masked_grid, lambda x: x[:, 0])
    full = u.to_array(fill=-9.0)
    assert full.shape == masked_grid.cells
    assert (full[~masked_grid.mask] == -9.0).all()


@pytest.mark.parametrize("p,eps", [(2.0, 0.0), (1.5, 1e-2), (3.0, 0.0), (2.5, 0.1)])
def test_energy_matches_loop_reference(masked_grid, p, eps):
    u = random_field(masked_grid, seed=5)
    got = p_energy(u, EnergyParams(p, eps))
    want = loop_energy(u.values, masked_grid, p, eps)
    assert got == pytest.approx(want, rel=1e-13)


def test_quadratic_energy_is_graph_energy():
    g = GridDomain.box(2, (0.0, 0.0), (9, 7), 0.25)
    u = random_field(g, seed=1)
    a, b = g.face_pairs
    graph = float(np.sum((u.values[b] - u.values[a]) ** 2) * g.h ** (g.n - 2))
    assert p_energy(u, EnergyParams(2.0)) == pytest.approx(graph, rel=1e-13)


def test_linear_field_has_constant_gradient_square():
    from qcap.energy import cell_gradient_sq

    g = GridDomain.box(3, (0.0, 0.0, 0.0), (5, 5, 5), 0.2)
    slope = 0.7
    u = ScalarField.from_function(g, lambda x: slope * x[:, 0])
    gsq = cell_gradient_sq(u.values, g).reshape(g.cells)
    # interior cells see both x-neighbours: g_c = slope^2; outer slabs see one
    np.testing.assert_allclose(gsq[1:-1, :, :], slope**2, rtol=1e-12)
    np.testing.assert_allclose(gsq[0, :, :], slope**2 / 2, rtol=1e-12)


def test_symmetry_under_complement(masked_grid):
    # dyadic values keep 1 - u exact, so invariance is bit-for-bit
    rng = np.random.default_rng(2)
    vals = rng.integers(0, 2**20 + 1, size=masked_grid.inside_count) / 2.0**20
    u = ScalarField(masked_grid, vals)
    v = ScalarField(masked_grid, 1.0 - u.values)
    params = EnergyParams(2.7, 1e-3)
    assert p_energy(u, params) == p_energy(v, params)
    gu = p_energy_gradient(u, params).values
    gv = p_energy_gradient(v, params).values
    np.testing.assert_array_equal(gu, -gv)


def test_homogeneous_scaling(masked_grid):
    u = random_field(masked_grid, seed=3)
    for p in (1.5, 2.0, 3.0):
        base = p_energy(u, EnergyParams(p))
        scaled = p_energy(ScalarField(masked_grid, 2.5 * u.values), EnergyParams(p))
        assert scaled == pytest.approx(2.5**p * base, rel=1e-12)


def test_convexity_witness(masked_grid):
    rng = np.random.default_rng(4)
    params = EnergyParams(3.0, 1e-2)
    for _ in range(25):
        u = rng.normal(size=masked_grid.inside_count)
        v = rng.normal(size=masked_grid.inside_count)
        mid = p_energy(ScalarField(masked_grid, 0.5 * (u + v)), params)
        avg = 0.5 * (
            p_energy(ScalarField(masked_grid, u), params)
            + p_energy(ScalarField(masked_grid, v), params)
        )
        assert mid <= avg + 1e-12 * max(1.0, abs(avg))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_matches_finite_differences(masked_grid, p):
    u = random_field(masked_grid, seed=6)
    params = EnergyParams(p, 1e-3)
    grad = p_energy_gradient(u, params).values
    rng = np.random.default_rng(7)
    cells = rng.choice(masked_grid.inside_count, size=24, replace=False)
    step = 1e-6
    for c in cells:
        up = u.values.copy()
        dn = u.values.copy()
        up[c] += step
        dn[c] -= step
        fd = (
            p_energy(ScalarField(masked_grid, up), params)
            - p_energy(ScalarField(masked_grid, dn), params)
        ) / (2 * step)
        denom = max(abs(fd), abs(grad[c]), 1e-8)
        assert abs(fd - grad[c]) / denom < 1e-5


def hessian_case(name, rng):
    """A grid and the cells the Hessian is restricted to."""
    if name == "ring":
        cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, GridDomain.box(2, (-2.5, -2.5), (24, 24), 5.0 / 24))
        grid = cond.domain
        assert grid.cut_faces[0].size > 0
        plates = np.zeros(grid.inside_count, dtype=bool)
        plates[cond.e_indices] = True
        plates[cond.f_indices] = True
        return grid, np.flatnonzero(~plates)
    if name == "masked":
        grid = GridDomain.box(2, (-1.0, -1.0), (12, 12), 2.0 / 12, Ball((0.0, 0.0), 0.95))
    else:
        grid = GridDomain.box(3, (0.0, 0.0, 0.0), (6, 5, 4), 0.2)
    return grid, np.flatnonzero(rng.uniform(size=grid.inside_count) < 0.7)


@pytest.mark.parametrize(
    "p, eps", [(1.5, 1e-2), (3.0, 1e-2), (2.0, 1e-2), (2.0, 0.0)], ids=["1.5", "3.0", "2.0", "2.0-eps0"]
)
@pytest.mark.parametrize("case", ["ring", "masked", "3d"])
def test_hessian_matches_gradient_differences(case, p, eps):
    # H v on the restricted cells against central differences of the
    # gradient along v, and the returned diagonal against H e_j
    rng = np.random.default_rng(11)
    grid, free = hessian_case(case, rng)
    params = EnergyParams(p, eps)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    if eps == 0:
        # flat on the first half of the cells, so g = 0 on many of them
        u[: u.size // 2] = 0.5
    v = np.zeros(grid.inside_count)
    v[free] = rng.normal(size=free.size)
    _, apply, diag = FreeEnergy(grid, free, params).derivatives(u)
    step = 1e-5
    fd = (energy_gradient(u + step * v, grid, params) - energy_gradient(u - step * v, grid, params))[free]
    fd /= 2 * step
    assert np.linalg.norm(apply(v[free]) - fd) <= 1e-6 * np.linalg.norm(fd)
    for j in rng.choice(free.size, 8, replace=False):
        unit = np.zeros(free.size)
        unit[j] = 1.0
        assert diag[j] == pytest.approx(apply(unit)[j], rel=1e-12)
        assert diag[j] > 0


@pytest.mark.parametrize(
    "p, eps", [(1.5, 1e-2), (3.0, 1e-2), (2.0, 1e-2), (2.0, 0.0)], ids=["1.5", "3.0", "2.0", "2.0-eps0"]
)
@pytest.mark.parametrize("case", ["ring", "masked", "3d"])
def test_free_gradient_is_the_full_gradient_on_free_cells(case, p, eps):
    # the same face terms scattered in the same order: equal bit for bit
    rng = np.random.default_rng(14)
    grid, free = hessian_case(case, rng)
    params = EnergyParams(p, eps)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    if eps == 0:
        u[: u.size // 2] = 0.5
    grad, _, _ = FreeEnergy(grid, free, params).derivatives(u)
    assert np.array_equal(grad, energy_gradient(u, grid, params)[free])


@pytest.mark.parametrize("p, sweeps", [(1.5, 1), (2.0, 0), (3.0, 1)])
def test_derivatives_sweep_the_grid_at_most_once(p, sweeps, monkeypatch):
    # gradient and Hessian share one cell_gradient_sq, and p = 2 needs none
    calls = []
    sweep = qcap.energy.cell_gradient_sq

    def counting(u, grid):
        calls.append(grid)
        return sweep(u, grid)

    monkeypatch.setattr(qcap.energy, "cell_gradient_sq", counting)
    rng = np.random.default_rng(15)
    grid, free = hessian_case("ring", rng)
    FreeEnergy(grid, free, EnergyParams(p, 1e-2)).derivatives(rng.uniform(0.0, 1.0, grid.inside_count))
    assert len(calls) == sweeps


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["ring", "masked", "3d"])
def test_hessian_is_symmetric(case, p):
    # w.Hv = v.Hw for the assembled H1 + M^T D M product
    rng = np.random.default_rng(12)
    grid, free = hessian_case(case, rng)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    _, apply, _ = FreeEnergy(grid, free, EnergyParams(p, 1e-2)).derivatives(u)
    v, w = rng.normal(size=(2, free.size))
    assert w @ apply(v) == pytest.approx(v @ apply(w), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hessian_diagonal_is_every_unit_product(p):
    # the whole returned Jacobi diagonal, not a sample of it, against H e_j
    rng = np.random.default_rng(13)
    grid, free = hessian_case("masked", rng)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    _, apply, diag = FreeEnergy(grid, free, EnergyParams(p, 1e-2)).derivatives(u)
    columns = np.array([apply(unit) for unit in np.eye(free.size)])
    np.testing.assert_allclose(diag, np.diag(columns), rtol=1e-12)
    assert (diag > 0).all()


def test_quadratic_gradient_is_scaled_laplacian():
    # for p = 2, eps = 0 the gradient is 2 h^n times the negative
    # five-point Laplacian (with one-sided terms at the boundary)
    g = GridDomain.box(2, (0.0, 0.0), (8, 8), 0.5)
    u = random_field(g, seed=8)
    grad = p_energy_gradient(u, EnergyParams(2.0)).values.reshape(g.cells)
    full = u.values.reshape(g.cells)
    for i in range(8):
        for j in range(8):
            acc = 0.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < 8 and 0 <= nj < 8:
                    acc += full[ni, nj] - full[i, j]
            want = -2.0 * g.h ** (g.n - 2) * acc
            assert grad[i, j] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_singular_gradient_raises(masked_grid):
    flat = ScalarField(masked_grid, np.full(masked_grid.inside_count, 0.3))
    with pytest.raises(SingularityError):
        p_energy_gradient(flat, EnergyParams(1.5, 0.0))
    with pytest.raises(SingularityError):
        FreeEnergy(masked_grid, np.arange(flat.values.size), EnergyParams(1.5, 0.0)).derivatives(flat.values)
    # positive smoothing removes the singularity
    out = p_energy_gradient(flat, EnergyParams(1.5, 1e-3)).values
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_project_admissible():
    g = GridDomain.box(2, (-2.0, -2.0), (32, 32), 0.125)
    e = rasterize(Ball((0.0, 0.0), 0.5, closed=True), g)
    f = rasterize(Complement(Ball((0.0, 0.0), 1.7)), g)
    cond = Condenser(e, f, g)
    raw = ScalarField(g, np.linspace(-1.0, 2.0, g.inside_count))
    proj = project_admissible(raw, cond)
    assert proj.values.min() >= 0.0 and proj.values.max() <= 1.0
    assert (proj.values[cond.e_indices] == 0.0).all()
    assert (proj.values[cond.f_indices] == 1.0).all()
