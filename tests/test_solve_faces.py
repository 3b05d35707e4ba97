"""Per-axis face sweeps against the full face list they replaced.

``GridDomain.cut_faces``, the face selection of ``FreeEnergy``, the
whole-grid kernels ``cell_gradient_sq``, ``energy_value`` and
``energy_gradient``, and the solves work axis by axis on grid-shaped
arrays and never build ``face_pairs``; a grid caches its cut faces and
nothing else.  The oracles below are
the full-face-list versions: plate owners and labels gathered over
``face_pairs``, each cut segment bisected as stacked (N, n) points through
``Region.contains``, and the kernels summed by ``bincount`` over the face
list, with the cut weights at face-list positions.  Every array must match
exactly.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from qcap import (
    Ball,
    Condenser,
    DomainError,
    GridDomain,
    RadialPower,
    SingularityError,
    check_hesse_shlyk,
    make_ring_condenser,
    pullback_condenser,
    rasterize,
    solve_capacity,
)
from qcap.energy import (
    EnergyParams,
    FreeEnergy,
    _check_length,
    _phi1,
    cell_gradient_sq,
    energy_gradient,
    energy_value,
)
from qcap.grid import CUT_BISECTIONS, THETA_MIN, Box, Complement, Intersection, Union, graph_distance

from grid_helpers import forbid_face_list, inside_index, plate_masks


def oracle_cut_fraction(region, start, stop):
    lo = np.zeros(len(start))
    hi = np.ones(len(start))
    delta = stop - start
    for _ in range(CUT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        inside = region.contains(start + mid[:, None] * delta)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    separated = ~region.contains(start) & region.contains(stop)
    return np.where(separated, np.maximum(hi, THETA_MIN), 1.0)


def oracle_cut_positions(grid):
    """(faces, weights) from plate owners gathered over the whole face list; faces are ``face_pairs`` positions."""
    a, b = grid.face_pairs
    inside_flat = np.flatnonzero(grid.mask)

    def centers(idx):
        ijk = np.unravel_index(inside_flat[idx], grid.cells)
        return np.asarray(grid.origin) + (np.stack(ijk, axis=-1) + 0.5) * grid.h

    owner = np.full(grid.inside_count, -1, dtype=np.int8)
    for k, (cells, _) in enumerate(grid.plates):
        owner[inside_index(grid)[cells]] = k
    faces = np.flatnonzero((owner[a] < 0) != (owner[b] < 0))
    a_plate = owner[a[faces]] >= 0
    free_end = np.where(a_plate, b[faces], a[faces])
    plate_end = np.where(a_plate, a[faces], b[faces])
    which = owner[plate_end]
    weights = np.ones(faces.size)
    for k, (_, region) in enumerate(grid.plates):
        sel = np.flatnonzero(which == k)
        if region is not None and sel.size:
            weights[sel] = 1.0 / oracle_cut_fraction(region, centers(free_end[sel]), centers(plate_end[sel]))
    keep = weights != 1.0
    return faces[keep], weights[keep]


def face_keys(grid):
    """(axis, flat) of each ``face_pairs`` face: its axis, and its flat index in an array of that axis's face shape."""
    a, b = grid.face_pairs
    inside_flat = np.flatnonzero(grid.mask)
    ia = np.stack(np.unravel_index(inside_flat[a], grid.cells))
    ib = np.stack(np.unravel_index(inside_flat[b], grid.cells))
    axis = np.argmax(ib - ia, axis=0)
    flat = np.empty(a.size, dtype=np.int64)
    for k in range(grid.n):
        on = axis == k
        shape = tuple(c - 1 if j == k else c for j, c in enumerate(grid.cells))
        flat[on] = np.ravel_multi_index(tuple(ia[:, on]), shape)
    return axis, flat


def oracle_cut_faces(grid):
    """``oracle_cut_positions`` keyed per axis: one (flat, weights) pair per axis."""
    faces, weights = oracle_cut_positions(grid)
    axis, flat = face_keys(grid)
    return tuple((flat[faces[axis[faces] == k]], weights[axis[faces] == k]) for k in range(grid.n))


def oracle_cell_gradient_sq(u, grid):
    """``cell_gradient_sq`` by ``bincount`` over the face list."""
    a, b = grid.face_pairs
    d2 = ((u[b] - u[a]) / grid.h) ** 2
    faces, weights = oracle_cut_positions(grid)
    d2[faces] *= weights
    m = grid.inside_count
    return 0.5 * (np.bincount(a, weights=d2, minlength=m) + np.bincount(b, weights=d2, minlength=m))


def oracle_energy_value(u, grid, params):
    _check_length(u, grid)
    g = oracle_cell_gradient_sq(u, grid)
    return float(np.sum((g + params.eps**2) ** (params.p / 2)) * grid.h**grid.n)


def oracle_energy_gradient(u, grid, params):
    _check_length(u, grid)
    p, eps = params.p, params.eps
    a, b = grid.face_pairs
    d = (u[b] - u[a]) / grid.h
    if p == 2:
        coef = 2.0 * d
    else:
        w = _phi1(oracle_cell_gradient_sq(u, grid) + eps**2, p)
        coef = w[a] + w[b]
        coef *= d
    faces, weights = oracle_cut_positions(grid)
    coef[faces] *= weights
    coef *= grid.h ** (grid.n - 1)
    m = grid.inside_count
    return np.bincount(b, weights=coef, minlength=m) - np.bincount(a, weights=coef, minlength=m)


def oracle_free(grid, E, F):
    """The inside cells on neither plate, those of even index sum (red) first, each colour ascending."""
    free = np.flatnonzero(~(E | F)[grid.mask])
    odd = np.sum(np.unravel_index(np.flatnonzero(grid.mask)[free], grid.cells), axis=0) % 2
    return free[np.argsort(odd, kind="stable")]


def oracle_selection(grid, E, F):
    """(la, lb, w, cells) of ``FreeEnergy`` from labels gathered over the whole face list."""
    a, b = grid.face_pairs
    m = grid.inside_count
    free, base = oracle_free(grid, E, F), F[grid.mask].astype(float)
    label = (1 + 2 * base).astype(np.int8)
    label[free] = 0
    ends = label[a] + label[b]
    keep = (ends != 2) & (ends != 6)
    sel = np.flatnonzero(keep)
    w = np.ones(sel.size)
    faces, weights = oracle_cut_positions(grid)
    hit = keep[faces]
    w[np.searchsorted(sel, faces[hit])] = weights[hit]
    near = np.zeros(m, dtype=bool)
    near[a[sel]] = True
    near[b[sel]] = True
    near[free] = False
    cells = np.concatenate([free, np.flatnonzero(near)])
    local = np.empty(m, dtype=np.int32)
    local[cells] = np.arange(cells.size, dtype=np.int32)
    return local[a[sel]], local[b[sel]], w, cells


def oracle_source_pattern(energy):
    """(indptr, indices, source) of the slots concatenated as up, down and diagonal, stably sorted by row.

    Slot s takes its value from [x | y | diagonal][source[s]]: x per face
    in its up slot, y per face in its down slot, and one per free cell.
    """
    la, lb, nf, nface = energy.la, energy.lb, energy.nf, energy.la.size
    slot_face = np.arange(nface, dtype=np.int32)
    up, down = lb < nf, la < nf
    diag = np.arange(nf, dtype=np.int32)
    rows = np.concatenate([la[up], lb[down], diag])
    cols = np.concatenate([lb[up], la[down], diag])
    source = np.concatenate([slot_face[up], nface + slot_face[down], 2 * nface + diag])
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(energy.cells.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=energy.cells.size), out=indptr[1:])
    return indptr, cols[order], source[order]


def oracle_pattern(energy):
    """``FreeEnergy.pattern``: ``oracle_source_pattern`` with each slot's face (0 on the diagonal) and sign."""
    indptr, indices, source = oracle_source_pattern(energy)
    nface = energy.la.size
    down = (source >= nface) & (source < 2 * nface)
    face = np.where(source < 2 * nface, source % max(nface, 1), 0).astype(np.int32)
    return indptr, indices, face, np.where(down, -1, 1).astype(np.int8)


def oracle_matrix(energy, x, y, diag, rows):
    """The first ``rows`` rows of the pattern, gathered from the concatenation [x | y | diag]."""
    indptr, indices, source = oracle_source_pattern(energy)
    end = indptr[rows]
    data = np.concatenate([x, y, diag])[source[:end]]
    return sp.csr_array((data, indices[:end], indptr[: rows + 1]), shape=(rows, energy.nf))


def oracle_derivatives(energy, x):
    """(grad, H1, M, phi''/h^n, diagonal, k1) of ``FreeEnergy.derivatives``, each matrix gathered from a
    concatenation, the diagonal's M term a CSC product of M's squared data, and k1 H1's face weights."""
    p, eps, h, n = energy.params.p, energy.params.eps, energy.grid.h, energy.grid.n
    la, lb, w, nf, k = energy.la, energy.lb, energy.w, energy.nf, energy.cells.size
    uc = energy.F[energy.grid.mask][energy.cells].astype(float)
    uc[:nf] = x
    diff = uc[lb] - uc[la]
    d2 = (diff / h) ** 2 * w
    g = 0.5 * (np.bincount(la, weights=d2, minlength=k) + np.bincount(lb, weights=d2, minlength=k)) + eps**2
    d1 = _phi1(g, p)
    s = d1[la] + d1[lb]
    coef = s * (diff / h)
    coef *= w
    coef *= h ** (n - 1)
    grad = np.bincount(lb, weights=coef, minlength=k)[:nf] - np.bincount(la, weights=coef, minlength=k)[:nf]
    k1 = h ** (n - 2) * w * s
    diag = np.bincount(la, weights=k1, minlength=k)[:nf]
    diag += np.bincount(lb, weights=k1, minlength=k)[:nf]
    h1 = oracle_matrix(energy, -k1, -k1, diag, nf)
    wdh = h ** (n - 2) * w * diff
    own = np.bincount(lb, weights=wdh, minlength=k)[:nf]
    own -= np.bincount(la, weights=wdh, minlength=k)[:nf]
    mv = oracle_matrix(energy, wdh, -wdh, own, k)
    d2h = ((p - 2) / 2) * d1 / g / h**n
    diag = diag + sp.csr_array((mv.data**2, mv.indices, mv.indptr), shape=mv.shape).T @ d2h
    return grad, h1, mv, d2h, diag, k1


def oracle_coupling(energy, k1):
    """H1's red-by-black block B, entries -k1 on the faces with two free ends, through scipy's COO constructor
    on their int64 positions, the red cells told by their index sums and each colour numbered in free order."""
    grid, nf = energy.grid, energy.nf
    red = np.sum(np.unravel_index(np.flatnonzero(grid.mask)[energy.free], grid.cells), axis=0) % 2 == 0
    order = np.empty(nf, dtype=np.int32)
    nr = int(np.count_nonzero(red))
    order[red] = np.arange(nr, dtype=np.int32)
    order[~red] = np.arange(nf - nr, dtype=np.int32)
    both = np.flatnonzero((energy.la < nf) & (energy.lb < nf))
    la, lb = energy.la[both], energy.lb[both]
    a_red = red[la]
    rows = order[np.where(a_red, la, lb)]
    cols = order[np.where(a_red, lb, la)]
    return sp.csr_array((-k1[both], (rows, cols)), shape=(nr, nf - nr))


def ring(n, cells, region=None):
    return make_ring_condenser(
        (0.0,) * n, 1.0, 2.0, GridDomain.box(n, (-2.5,) * n, (cells,) * n, 5.0 / cells, region)
    )


def holed_mask():
    """The ring (1, 2) on the 128² disc with a box hole between the plates."""
    return ring(2, 128, Intersection((Ball((0.0, 0.0), 2.45), Complement(Box((1.2, -0.3), (1.6, 0.3))))))


def no_regions():
    cond = ring(2, 48)
    return Condenser(cond.E, cond.F, cond.domain)


def union_complement():
    g = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    region_e = Union((Ball((-0.3, 0.0), 0.6, closed=True), Box((-0.2, -0.2), (1.0, 0.2))))
    region_f = Complement(Union((Ball((0.0, 0.0), 2.0), Box((1.5, -0.4), (2.3, 0.4)))))
    return Condenser(rasterize(region_e, g), rasterize(region_f, g), g, region_e, region_f)


def pulled_back():
    image = GridDomain.box(2, (-4.5, -4.5), (96, 96), 9.0 / 96)
    c_image = make_ring_condenser((0.0, 0.0), 1.0, 2.5, image)
    source = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    return pullback_condenser(RadialPower(1.5, (0.0, 0.0)), c_image, source)


def sharing_faces():
    g = GridDomain.box(2, (0.0, 0.0), (40, 40), 0.05)
    e_region = Box((0.0, 0.0), (1.0, 0.5))
    e = rasterize(e_region, g)
    f = rasterize(Box((0.0, 0.51), (1.0, 1.0)), g) & ~e
    return Condenser(e, f, g, region_e=e_region)


CONDENSERS = {
    "ring-2d": lambda: ring(2, 64),
    "ring-3d": lambda: ring(3, 24),
    "holed-mask": holed_mask,
    "no-regions": no_regions,
    "union-complement": union_complement,
    "pulled-back": pulled_back,
    "sharing-faces": sharing_faces,
}


def plate_sets(cond):
    """(E, F) as ``solve_capacity`` passes them."""
    return cond.E, cond.F


def arbitrary_sets(name):
    """A grid with an arbitrary free set and every third cell on F, as the energy tests pass them."""
    rng = np.random.default_rng(0)
    if name == "masked":
        grid = GridDomain.box(2, (-1.0, -1.0), (12, 12), 2.0 / 12, Ball((0.0, 0.0), 0.95))
    elif name == "3d":
        grid = GridDomain.box(3, (0.0, 0.0, 0.0), (6, 5, 4), 0.2)
    else:
        # a plate-embedding grid whose cut faces the free set need not keep
        grid = ring(2, 24).domain
    base = (np.arange(grid.inside_count) % 3 == 0).astype(float)
    return grid, *plate_masks(grid, rng.uniform(size=grid.inside_count) < 0.7, base)


def selection_cases():
    for name, make in CONDENSERS.items():
        yield pytest.param(lambda make=make: (make().domain, *plate_sets(make())), id=name)
    for name in ("masked", "3d", "ring-plates"):
        yield pytest.param(lambda name=name: arbitrary_sets(name), id=f"arbitrary-{name}")


@pytest.mark.parametrize("name", list(CONDENSERS))
def test_cut_faces_match_the_face_list_oracle(name):
    cond = CONDENSERS[name]()
    got = cond.domain.cut_faces
    want = oracle_cut_faces(cond.domain)
    assert len(got) == len(want) == cond.domain.n
    for (faces, weights), (want_faces, want_weights) in zip(got, want):
        assert faces.dtype == want_faces.dtype
        np.testing.assert_array_equal(faces, want_faces)
        np.testing.assert_array_equal(weights, want_weights)
    assert (sum(faces.size for faces, _ in got) == 0) == (name == "no-regions")


@pytest.mark.parametrize("case", selection_cases())
def test_free_energy_faces_match_the_face_list_oracle(case):
    grid, E, F = case()
    energy = FreeEnergy(grid, E, F, EnergyParams(1.5, 1e-2))
    la, lb, w, cells = oracle_selection(grid, E, F)
    for got, want in ((energy.la, la), (energy.lb, lb), (energy.w, w), (energy.cells, cells)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("case", selection_cases())
def test_red_black_parity_is_the_index_sum_parity(case):
    # the free cells, those on neither plate, of even index sum come first,
    # the nr red cells, and each colour is in ascending inside enumeration
    grid, E, F = case()
    energy = FreeEnergy(grid, E, F, EnergyParams(2.0))
    free = energy.free
    np.testing.assert_array_equal(np.sort(free), np.flatnonzero(~(E | F)[grid.mask]))
    index = np.unravel_index(np.flatnonzero(grid.mask)[free], grid.cells)
    red = np.sum(index, axis=0) % 2 == 0
    np.testing.assert_array_equal(red, np.arange(free.size) < energy.nr)
    assert (np.diff(free[red]) > 0).all() and (np.diff(free[~red]) > 0).all()
    assert energy.red_black(np.zeros(free.size))[2].shape == (energy.nr, free.size - energy.nr)


@pytest.mark.parametrize("case", selection_cases())
def test_hessian_pattern_matches_the_sorted_slots(case):
    # one scatter per slot group gives the stable argsort's slot order, dtypes included
    grid, E, F = case()
    energy = FreeEnergy(grid, E, F, EnergyParams(1.5, 1e-2))
    for got, want in zip(energy.pattern, oracle_pattern(energy)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("case", selection_cases())
def test_newton_fills_match_the_gathered_oracle(case, p):
    # M written in place slot group by slot group, and B gathered from its
    # pattern, against the concatenate-and-gather fill and the COO
    # constructor, bit for bit; the diagonal's M term summed per face, and
    # H1 v taken through B, against the CSC product of M's squared data and
    # the gathered H1, to rounding
    grid, E, F = case()
    energy = FreeEnergy(grid, E, F, EnergyParams(p, 1e-2))
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.5, 1.5, energy.nf)
    grad, apply, diag, coupling = energy.derivatives(x)
    want_grad, h1, mv, d2h, want_diag, k1 = oracle_derivatives(energy, x)
    np.testing.assert_array_equal(grad, want_grad)
    assert_same_csr(coupling, oracle_coupling(energy, k1))
    np.testing.assert_allclose(diag, want_diag, rtol=1e-12)
    for _ in range(3):
        v = rng.uniform(-1.0, 1.0, energy.nf)
        s = mv @ v
        s *= d2h
        want = h1 @ v
        want += mv.T @ s
        assert np.linalg.norm(apply(v) - want) <= 1e-12 * np.linalg.norm(want)
    # the fill itself, on the values the oracle gathers
    nface, nf = energy.la.size, energy.nf
    values, diag = rng.uniform(-1.0, 1.0, nface), rng.uniform(-1.0, 1.0, nf)
    want = oracle_matrix(energy, values, -values, diag, energy.cells.size)
    assert_same_csr(energy._matrix(values.copy(), diag), want)


@pytest.mark.parametrize("case", selection_cases())
def test_red_black_coupling_matches_the_coo_oracle(case):
    grid, E, F = case()
    energy = FreeEnergy(grid, E, F, EnergyParams(2.0))
    _, _, coupling = energy.red_black(np.zeros(energy.nf))
    assert_same_csr(coupling, oracle_coupling(energy, grid.h ** (grid.n - 2) * energy.w * 2.0))


@pytest.mark.parametrize("name", list(CONDENSERS))
def test_plate_indices_are_the_inside_enumeration(name):
    cond = CONDENSERS[name]()
    idx = inside_index(cond.domain)
    for got, plate in ((cond.e_indices, cond.E), (cond.f_indices, cond.F)):
        want = idx[plate]
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def sweep_and_solve(cond, p):
    """The cut faces, a ``FreeEnergy`` set-up, the whole-grid kernels and a solve, all at ``p``."""
    grid = cond.domain
    grid.cut_faces
    FreeEnergy(grid, *plate_sets(cond), EnergyParams(p, 1e-4))
    u, _ = kernel_fields(cond)
    cell_gradient_sq(u, grid)
    energy_value(u, grid, EnergyParams(p))
    energy_gradient(u, grid, EnergyParams(p, 1e-3))
    assert solve_capacity(cond, p).converged


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("name", list(CONDENSERS))
def test_solve_builds_no_inside_index(name, p, monkeypatch):
    # the grid has no map from cell to inside enumeration: a solve numbers
    # its cells through an int32 map of its own, and neither it nor any
    # other face sweep reads the full face list
    forbid_face_list(monkeypatch)
    sweep_and_solve(CONDENSERS[name](), p)


def traced_rise(call):
    """The ``tracemalloc`` peak of ``call()`` above what was held before it, its result included."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_free_energy_setup_memory():
    # tracemalloc rise of FreeEnergy.__init__ on the 3D 64³ ring at p = 1.5,
    # the red-first numbering of the free cells included: 12.55 MB.  Before
    # the set-up numbered its own cells it measured 11.99 MB on a free list
    # and plate field built outside it (14.84 MB with that numbering), 11.07
    # without the red-black coupling's pattern and face map (10.71 without
    # the slots' signs either), and 25.8 MB with the int64 face ends, the
    # concatenated slots and their argsort
    cond = ring(3, 64)
    cond.domain.cut_faces
    assert traced_rise(lambda: FreeEnergy(cond.domain, cond.E, cond.F, EnergyParams(1.5, 1e-4))) < 13.7e6


def test_free_energy_keeps_no_inside_length_array():
    # on the criterion-3 ring every array a FreeEnergy holds, its patterns'
    # included, is sized by its local cells, faces or slots: it derives the
    # plate values from the masks and keeps them per local cell
    cond = ring(2, 256)
    energy = FreeEnergy(cond.domain, cond.E, cond.F, EnergyParams(1.5, 1e-4))
    held = [value for value in vars(energy).values() if isinstance(value, np.ndarray)]
    held += [part for value in vars(energy).values() if isinstance(value, tuple) for part in value]
    assert len(held) > 10
    assert all(part.shape != (cond.domain.inside_count,) for part in held)


def test_derivatives_memory():
    # tracemalloc rise of one Newton step's derivatives on the 3D 64³ ring at
    # p = 1.5, M and the coupling B included: 10.25 MB with H1 taken through
    # B and the diagonal's M term summed per face, 10.99 MB with H1 filled on
    # the pattern and M's squares formed in M's own data, 11.37 MB with g
    # held through the fills and the squares summed in row chunks, 16.24 MB
    # with the [x | y | diag] concatenations gathered into each matrix and
    # the squared copy of M
    cond = ring(3, 64)
    energy = FreeEnergy(cond.domain, *plate_sets(cond), EnergyParams(1.5, 1e-4))
    x = np.random.default_rng(0).uniform(size=energy.nf)
    assert traced_rise(lambda: energy.derivatives(x)) < 11.2e6


def test_red_black_memory():
    # tracemalloc rise of the p = 2 quantities on the criterion-2 ring (3D
    # 64³) at the solve's start, B included: 6.24 MB with B's values gathered
    # on the pattern the set-up built, 6.83 MB with B built by scipy's
    # COO constructor from the two-free-end faces' values alone, 7.34 MB with
    # B laid out by hand in a table of 2n places per red cell, and 8.44 MB
    # with the COO constructor called while the face-sized k1 was still held
    cond = ring(3, 64)
    energy = FreeEnergy(cond.domain, *plate_sets(cond), EnergyParams(2.0))
    x = np.broadcast_to(0.0, (energy.nf,))
    assert traced_rise(lambda: energy.red_black(x)) < 7.2e6


def masked_annulus():
    """The ring (1, 2) on the 96² grid masked to the annulus 0.5 < |x| < 2.45: E is an annulus too."""
    return ring(2, 96, Intersection((Ball((0.0, 0.0), 2.45), Complement(Ball((0.0, 0.0), 0.5)))))


def one_cell_thick():
    """A 3D grid one cell thick along axis 1, with box plates at both ends of axis 0 that cut their faces at theta = 0.1."""
    g = GridDomain.box(3, (0.0, 0.0, 0.0), (12, 1, 9), 0.25)
    e_region = Box((-1.0, -1.0, -1.0), (0.6, 1.0, 3.0))
    f_region = Box((2.4, -1.0, -1.0), (4.0, 1.0, 3.0))
    return Condenser(rasterize(e_region, g), rasterize(f_region, g), g, e_region, f_region)


KERNEL_CONDENSERS = {
    "ring-2d-256": lambda: ring(2, 256),
    "ring-3d-32": lambda: ring(3, 32),
    "masked-annulus": masked_annulus,
    "one-cell-thick": one_cell_thick,
    "holed-mask": holed_mask,
}


def kernel_fields(cond):
    """A random field, and the same field constant on E, whose inner E cells have g = 0."""
    u = np.random.default_rng(2).uniform(-1.0, 2.0, cond.domain.inside_count)
    flat_e = u.copy()
    flat_e[cond.e_indices] = 0.5
    return u, flat_e


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", list(KERNEL_CONDENSERS))
def test_kernels_match_the_face_list_oracle(name, p, eps):
    cond = KERNEL_CONDENSERS[name]()
    grid, params = cond.domain, EnergyParams(p, eps)
    assert any(flat.size for flat, _ in grid.cut_faces)
    for u in kernel_fields(cond):
        g = cell_gradient_sq(u, grid)
        value = energy_value(u, grid, params)
        singular = p < 2 and eps == 0 and not g.all()
        if singular:
            with pytest.raises(SingularityError):
                energy_gradient(u, grid, params)
        else:
            grad = energy_gradient(u, grid, params)
        want = oracle_cell_gradient_sq(u, grid)
        assert g.dtype == want.dtype and np.array_equal(g, want)
        assert value == oracle_energy_value(u, grid, params)
        if singular:
            with pytest.raises(SingularityError):
                oracle_energy_gradient(u, grid, params)
        else:
            want = oracle_energy_gradient(u, grid, params)
            assert grad.dtype == want.dtype and np.array_equal(grad, want)
    # the constant-on-E field takes the singular path exactly at p < 2, eps = 0
    assert singular == (p < 2 and eps == 0)


@pytest.mark.parametrize("name", list(KERNEL_CONDENSERS))
def test_kernels_reject_a_field_of_another_length(name):
    grid = KERNEL_CONDENSERS[name]().domain
    for size in (grid.inside_count - 1, grid.inside_count + 1):
        for kernel in (energy_value, energy_gradient, oracle_energy_value, oracle_energy_gradient):
            with pytest.raises(DomainError):
                kernel(np.zeros(size), grid, EnergyParams(1.5, 1e-3))


@pytest.mark.parametrize("name", list(KERNEL_CONDENSERS))
def test_whole_grid_sweeps_build_no_face_list(name, monkeypatch):
    forbid_face_list(monkeypatch)
    for p in (1.5, 2.0):
        sweep_and_solve(KERNEL_CONDENSERS[name](), p)


# ``GridDomain`` fields; anything else in a grid's ``__dict__`` is a cache
GRID_FIELDS = {f.name for f in dataclasses.fields(GridDomain)}


@pytest.mark.parametrize("name", ["ring-2d", "ring-3d", "masked-annulus"])
def test_grid_caches_only_cut_faces(name):
    cond = {**CONDENSERS, **KERNEL_CONDENSERS}[name]()
    assert solve_capacity(cond, 1.5).converged
    graph_distance(cond.domain, cond.E)
    assert check_hesse_shlyk(cond, 2.0, 16)["converged"]
    assert set(cond.domain.__dict__) == GRID_FIELDS | {"cut_faces"}


def test_first_energy_gradient_memory():
    # tracemalloc peak of a first p = 2 gradient on the criterion-2 ring (3D
    # 64³), its cut faces included: 11.1 MB, 29.2 MB with the face list
    cond = ring(3, 64)
    u = np.random.default_rng(0).uniform(size=cond.domain.inside_count)
    tracemalloc.start()
    try:
        energy_gradient(u, cond.domain, EnergyParams(2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14.0e6
