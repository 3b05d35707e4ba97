"""Discrete p-Dirichlet energy: values, gradients, invariances."""

import numpy as np
import pytest

from qcap import (
    Ball,
    DomainError,
    EnergyParams,
    GridDomain,
    SingularityError,
    energy_gradient,
    energy_value,
    make_ring_condenser,
)
import qcap.energy
from qcap.energy import FreeEnergy


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
    return rng.uniform(-1.0, 2.0, size=grid.inside_count)


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
    # a field one value short or long is an error, not a silent truncation
    for kernel in (energy_value, energy_gradient):
        for size in (3, masked_grid.inside_count - 1, masked_grid.inside_count + 1):
            with pytest.raises(DomainError):
                kernel(np.zeros(size), masked_grid, EnergyParams(1.5, 1e-3))


@pytest.mark.parametrize("p,eps", [(2.0, 0.0), (1.5, 1e-2), (3.0, 0.0), (2.5, 0.1)])
def test_energy_matches_loop_reference(masked_grid, p, eps):
    u = random_field(masked_grid, seed=5)
    got = energy_value(u, masked_grid, EnergyParams(p, eps))
    want = loop_energy(u, masked_grid, p, eps)
    assert got == pytest.approx(want, rel=1e-13)


def test_quadratic_energy_is_graph_energy():
    g = GridDomain.box(2, (0.0, 0.0), (9, 7), 0.25)
    u = random_field(g, seed=1)
    a, b = g.face_pairs
    graph = float(np.sum((u[b] - u[a]) ** 2) * g.h ** (g.n - 2))
    assert energy_value(u, g, EnergyParams(2.0)) == pytest.approx(graph, rel=1e-13)


def test_linear_field_has_constant_gradient_square():
    from qcap.energy import cell_gradient_sq

    g = GridDomain.box(3, (0.0, 0.0, 0.0), (5, 5, 5), 0.2)
    slope = 0.7
    u = slope * g.inside_centers_in(())[:, 0]
    gsq = cell_gradient_sq(u, g).reshape(g.cells)
    # interior cells see both x-neighbours: g_c = slope^2; outer slabs see one
    np.testing.assert_allclose(gsq[1:-1, :, :], slope**2, rtol=1e-12)
    np.testing.assert_allclose(gsq[0, :, :], slope**2 / 2, rtol=1e-12)


def test_symmetry_under_complement(masked_grid):
    # dyadic values keep 1 - u exact, so invariance is bit-for-bit
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2**20 + 1, size=masked_grid.inside_count) / 2.0**20
    v = 1.0 - u
    params = EnergyParams(2.7, 1e-3)
    assert energy_value(u, masked_grid, params) == energy_value(v, masked_grid, params)
    gu = energy_gradient(u, masked_grid, params)
    gv = energy_gradient(v, masked_grid, params)
    np.testing.assert_array_equal(gu, -gv)


def test_homogeneous_scaling(masked_grid):
    u = random_field(masked_grid, seed=3)
    for p in (1.5, 2.0, 3.0):
        base = energy_value(u, masked_grid, EnergyParams(p))
        scaled = energy_value(2.5 * u, masked_grid, EnergyParams(p))
        assert scaled == pytest.approx(2.5**p * base, rel=1e-12)


def test_convexity_witness(masked_grid):
    rng = np.random.default_rng(4)
    params = EnergyParams(3.0, 1e-2)
    for _ in range(25):
        u = rng.normal(size=masked_grid.inside_count)
        v = rng.normal(size=masked_grid.inside_count)
        mid = energy_value(0.5 * (u + v), masked_grid, params)
        avg = 0.5 * (energy_value(u, masked_grid, params) + energy_value(v, masked_grid, params))
        assert mid <= avg + 1e-12 * max(1.0, abs(avg))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_matches_finite_differences(masked_grid, p):
    u = random_field(masked_grid, seed=6)
    params = EnergyParams(p, 1e-3)
    grad = energy_gradient(u, masked_grid, params)
    rng = np.random.default_rng(7)
    cells = rng.choice(masked_grid.inside_count, size=24, replace=False)
    step = 1e-6
    for c in cells:
        up = u.copy()
        dn = u.copy()
        up[c] += step
        dn[c] -= step
        fd = (energy_value(up, masked_grid, params) - energy_value(dn, masked_grid, params)) / (2 * step)
        denom = max(abs(fd), abs(grad[c]), 1e-8)
        assert abs(fd - grad[c]) / denom < 1e-5


def hessian_case(name, rng):
    """A grid, the cells the Hessian is restricted to, and a plate field:
    0 on the E cells and 1 on the F cells among the others."""
    if name == "ring":
        cond = make_ring_condenser((0.0, 0.0), 1.0, 2.0, GridDomain.box(2, (-2.5, -2.5), (24, 24), 5.0 / 24))
        grid = cond.domain
        assert any(flat.size for flat, _ in grid.cut_faces)
        plates = np.zeros(grid.inside_count, dtype=bool)
        plates[cond.e_indices] = True
        plates[cond.f_indices] = True
        base = np.zeros(grid.inside_count)
        base[cond.f_indices] = 1.0
        return grid, np.flatnonzero(~plates), base
    if name == "masked":
        grid = GridDomain.box(2, (-1.0, -1.0), (12, 12), 2.0 / 12, Ball((0.0, 0.0), 0.95))
    else:
        grid = GridDomain.box(3, (0.0, 0.0, 0.0), (6, 5, 4), 0.2)
    # every third cell on F, so that many faces join E and F
    base = (np.arange(grid.inside_count) % 3 == 0).astype(float)
    return grid, np.flatnonzero(rng.uniform(size=grid.inside_count) < 0.7), base


def free_derivatives(energy, x):
    """(grad, apply, diagonal) on the free cells along the route a solve takes:
    ``derivatives`` for p != 2, and ``red_black`` for p = 2, with
    H1 v = [D_r v_r + B v_b; B^T v_r + D_b v_b] in free order."""
    if energy.params.p != 2:
        return energy.derivatives(x)
    grad, diag, coupling, red = energy.red_black(x)
    black = ~red

    def apply(v):
        out = diag * v
        out[red] += coupling @ v[black]
        out[black] += coupling.T @ v[red]
        return out

    return grad, apply, diag


@pytest.mark.parametrize(
    "p, eps", [(1.5, 1e-2), (3.0, 1e-2), (2.0, 1e-2), (2.0, 0.0)], ids=["1.5", "3.0", "2.0", "2.0-eps0"]
)
@pytest.mark.parametrize("case", ["ring", "masked", "3d"])
def test_hessian_matches_gradient_differences(case, p, eps):
    # H v on the restricted cells against central differences of the
    # gradient along v, and the returned diagonal against H e_j
    rng = np.random.default_rng(11)
    grid, free, base = hessian_case(case, rng)
    params = EnergyParams(p, eps)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    if eps == 0:
        # flat on the first half of the cells, so g = 0 on many of them
        u[: u.size // 2] = 0.5
    energy = FreeEnergy(grid, free, base, params)
    x = u[free]
    u = energy.field(x)
    v = np.zeros(grid.inside_count)
    v[free] = rng.normal(size=free.size)
    _, apply, diag = free_derivatives(energy, x)
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
    grid, free, base = hessian_case(case, rng)
    params = EnergyParams(p, eps)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    if eps == 0:
        u[: u.size // 2] = 0.5
    energy = FreeEnergy(grid, free, base, params)
    x = u[free]
    grad, _, _ = free_derivatives(energy, x)
    assert np.array_equal(grad, energy_gradient(energy.field(x), grid, params)[free])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_derivatives_sweep_the_grid_at_most_once(p, monkeypatch):
    # gradient and Hessian take g from the face pass, and red_black (p = 2) needs none: no sweep
    calls = []
    sweep = qcap.energy.cell_gradient_sq

    def counting(u, grid):
        calls.append(grid)
        return sweep(u, grid)

    monkeypatch.setattr(qcap.energy, "cell_gradient_sq", counting)
    rng = np.random.default_rng(15)
    grid, free, base = hessian_case("ring", rng)
    energy = FreeEnergy(grid, free, base, EnergyParams(p, 1e-2))
    free_derivatives(energy, rng.uniform(0.0, 1.0, grid.inside_count)[free])
    assert len(calls) == 0


@pytest.mark.parametrize("case", ["ring", "masked", "3d"])
def test_free_energy_rejects_inside_length_fields(case):
    # every route takes one value per free cell: a field on all the inside
    # cells, which could leave the plate field off the free cells, raises
    rng = np.random.default_rng(16)
    grid, free, base = hessian_case(case, rng)
    energy = FreeEnergy(grid, free, base, EnergyParams(1.5, 1e-2))
    u = energy.field(rng.uniform(0.0, 1.0, free.size))
    for route in (energy.value, energy.derivatives, energy.red_black):
        with pytest.raises(ValueError):
            route(u)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["ring", "masked", "3d"])
def test_hessian_is_symmetric(case, p):
    # w.Hv = v.Hw for the assembled H1 + M^T D M product
    rng = np.random.default_rng(12)
    grid, free, base = hessian_case(case, rng)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    _, apply, _ = free_derivatives(FreeEnergy(grid, free, base, EnergyParams(p, 1e-2)), u[free])
    v, w = rng.normal(size=(2, free.size))
    assert w @ apply(v) == pytest.approx(v @ apply(w), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hessian_diagonal_is_every_unit_product(p):
    # the whole returned Jacobi diagonal, not a sample of it, against H e_j
    rng = np.random.default_rng(13)
    grid, free, base = hessian_case("masked", rng)
    u = rng.uniform(0.0, 1.0, grid.inside_count)
    _, apply, diag = free_derivatives(FreeEnergy(grid, free, base, EnergyParams(p, 1e-2)), u[free])
    columns = np.array([apply(unit) for unit in np.eye(free.size)])
    np.testing.assert_allclose(diag, np.diag(columns), rtol=1e-12)
    assert (diag > 0).all()


def test_quadratic_gradient_is_scaled_laplacian():
    # for p = 2, eps = 0 the gradient is 2 h^n times the negative
    # five-point Laplacian (with one-sided terms at the boundary)
    g = GridDomain.box(2, (0.0, 0.0), (8, 8), 0.5)
    u = random_field(g, seed=8)
    grad = energy_gradient(u, g, EnergyParams(2.0)).reshape(g.cells)
    full = u.reshape(g.cells)
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
    flat = np.full(masked_grid.inside_count, 0.3)
    with pytest.raises(SingularityError):
        energy_gradient(flat, masked_grid, EnergyParams(1.5, 0.0))
    with pytest.raises(SingularityError):
        FreeEnergy(masked_grid, np.arange(flat.size), np.zeros(flat.size), EnergyParams(1.5, 0.0)).derivatives(flat)
    # positive smoothing removes the singularity
    out = energy_gradient(flat, masked_grid, EnergyParams(1.5, 1e-3))
    np.testing.assert_allclose(out, 0.0, atol=1e-15)
