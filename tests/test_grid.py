"""Grid domains, regions, rasterization, and condensers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from qcap import (
    Annulus,
    Ball,
    Box,
    Complement,
    Condenser,
    DomainError,
    EmptySetError,
    GeometryError,
    GridDomain,
    Intersection,
    SphereShell,
    Union,
    diameter,
    make_ring_condenser,
    rasterize,
)
from qcap.energy import EnergyParams, energy_value
from qcap.grid import connected, dilate_faces, graph_distance, point_diameter, radius


def square_grid(cells=32, half=2.0, region=None):
    return GridDomain.box(2, (-half, -half), (cells, cells), 2 * half / cells, region)


def test_grid_box_basic():
    g = square_grid(32, 2.0)
    assert g.n == 2
    assert g.h == pytest.approx(0.125)
    assert g.extent == pytest.approx((4.0, 4.0))
    assert g.inside_count == 32 * 32
    assert g.mask.all()
    centers = g.axis_centers(0)
    assert centers[0] == pytest.approx(-2.0 + g.h / 2)
    assert centers[-1] == pytest.approx(2.0 - g.h / 2)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridDomain.box(1, (0.0,), (4,), 0.5)
    with pytest.raises(DomainError):
        GridDomain.box(2, (0.0, 0.0), (4, 4), -0.5)
    with pytest.raises(DomainError):
        GridDomain.box(2, (0.0, 0.0), (4,), 0.5)
    # region that kills every cell
    with pytest.raises(GeometryError):
        square_grid(8, 1.0, Ball((9.0, 9.0), 0.1))


@pytest.mark.parametrize(
    "origin, h",
    [((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf), ((math.nan, 0.0), 1.0), ((0.0, -math.inf), 1.0)],
    ids=["h-nan", "h-inf", "origin-nan", "origin-inf"],
)
def test_grid_rejects_non_finite_geometry(origin, h):
    with pytest.raises(DomainError, match="finite"):
        GridDomain.box(2, origin, (4, 4), h)


def test_masked_grid_connectivity():
    # two disjoint balls produce a disconnected inside region
    blob = Union((Ball((-1.5, -1.5), 0.3), Ball((1.5, 1.5), 0.3)))
    with pytest.raises(GeometryError):
        square_grid(32, 2.0, blob)


def test_cell_center_rule():
    g = square_grid(8, 1.0, Ball((0.0, 0.0), 0.8))
    inside = g.inside_centers
    assert (np.linalg.norm(inside, axis=1) < 0.8).all()
    # cells whose centers fall outside the ball are excluded
    assert g.inside_count < 64


def test_region_algebra():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.5]])
    ball = Ball((0.0, 0.0), 1.0)
    np.testing.assert_array_equal(ball.contains(pts), [True, False, False])
    closed = Ball((0.0, 0.0), 1.0, closed=True)
    np.testing.assert_array_equal(closed.contains(pts), [True, True, False])
    np.testing.assert_array_equal(Complement(ball).contains(pts), [False, True, True])
    ann = Annulus((0.0, 0.0), 0.5, 2.0)
    np.testing.assert_array_equal(ann.contains(pts), [False, True, False])
    shell = SphereShell((0.0, 0.0), 1.0, 0.4)
    np.testing.assert_array_equal(shell.contains(pts), [False, True, False])
    box = Box((-0.5, -0.5), (1.5, 0.5))
    np.testing.assert_array_equal(box.contains(pts), [True, True, False])
    both = Intersection((closed, box))
    np.testing.assert_array_equal(both.contains(pts), [True, True, False])
    either = Union((ball, box))
    np.testing.assert_array_equal(either.contains(pts), [True, True, False])


def test_rasterization_monotone_in_radius():
    g = square_grid(48, 2.0)
    prev = rasterize(Ball((0.1, -0.2), 0.2), g)
    for r in (0.4, 0.8, 1.2, 1.9):
        cur = rasterize(Ball((0.1, -0.2), r), g)
        assert (prev <= cur).all()
        prev = cur


def test_locate_and_contains():
    g = square_grid(16, 2.0, Ball((0.0, 0.0), 1.8))
    pts = np.array([[0.0, 0.0], [1.9, 0.0], [5.0, 5.0]])
    idx, valid = g.locate(pts)
    np.testing.assert_array_equal(valid, [True, True, False])
    inside = g.contains(pts)
    np.testing.assert_array_equal(inside, [True, False, False])


def test_face_pairs_count_each_face_once():
    g = square_grid(4, 1.0)
    a, b = g.face_pairs
    # 4x4 full grid: 2 * 3 * 4 = 24 interior faces
    assert len(a) == len(b) == 24
    pairs = {tuple(sorted(t)) for t in zip(a.tolist(), b.tolist())}
    assert len(pairs) == 24


def test_graph_distance_and_helpers():
    mask = np.ones((5, 5), dtype=bool)
    mask[2, :4] = False
    grid = GridDomain(2, (0.0, 0.0), (5, 5), 1.0, mask)
    src = np.zeros_like(mask)
    src[0, 0] = True
    d = graph_distance(grid, src)
    assert d[grid.inside_index[0, 0]] == 0
    assert d[grid.inside_index[4, 0]] == 12  # forced around the slit
    assert grid.inside_index[2, 0] == -1  # wall cells are not enumerated
    assert connected(mask)
    grown = dilate_faces(src)
    assert grown.sum() == 3


def reference_graph_distance(mask, sources):
    """Frontier BFS: one face dilation per hop, O(cells * diameter)."""
    dist = np.full(mask.shape, -1, dtype=np.int32)
    frontier = sources & mask
    d = 0
    while frontier.any():
        dist[frontier] = d
        frontier = dilate_faces(frontier) & mask & (dist < 0)
        d += 1
    return dist


def reference_connected(cells):
    seed = np.zeros_like(cells)
    seed.flat[np.flatnonzero(cells)[:1]] = True
    return bool((reference_graph_distance(cells, seed)[cells] >= 0).all())


def _mask_pairs():
    shape = st.lists(st.integers(1, 7), min_size=2, max_size=3).map(tuple)
    return shape.flatmap(lambda s: st.tuples(arrays(bool, s), arrays(bool, s)))


def _cells(shape, *where):
    out = np.zeros(shape, dtype=bool)
    for idx in where:
        out[idx] = True
    return out


@settings(max_examples=300, deadline=None)
@given(_mask_pairs())
@example((np.zeros((4, 5), dtype=bool), np.zeros((4, 5), dtype=bool)))  # empty set
@example((_cells((3, 3, 3), (1, 1, 1)), _cells((3, 3, 3), (1, 1, 1))))  # single cell
@example((_cells((1, 5), (0, 0), (0, 4)), _cells((1, 5), (0, 0))))  # disconnected 2D
@example((_cells((2, 2, 3), (0, 0, 0), (1, 1, 2)), _cells((2, 2, 3), (1, 1, 2))))  # disconnected 3D
@example((_cells((3, 3), (0, 0), (0, 1), (1, 1)), _cells((3, 3), (0, 1), (2, 2))))  # sources partly outside
def test_connectivity_matches_frontier_bfs(pair):
    mask, sources = pair
    assert connected(mask) == reference_connected(mask)
    assert connected(sources) == reference_connected(sources)
    # graph_distance searches a GridDomain, whose inside cells are one
    # component: take the mask's largest
    labels, count = ndimage.label(mask, ndimage.generate_binary_structure(mask.ndim, 1))
    if count == 0:
        return
    component = labels == np.bincount(labels.ravel())[1:].argmax() + 1
    if not (sources & component).any():
        return
    grid = GridDomain(mask.ndim, (0.0,) * mask.ndim, mask.shape, 1.0, component)
    d = graph_distance(grid, sources)
    assert d.dtype == np.int32 and d.shape == (grid.inside_count,)
    np.testing.assert_array_equal(d, reference_graph_distance(component, sources)[component])


def test_condenser_validation():
    g = square_grid(32, 2.0)
    e = rasterize(Ball((0.0, 0.0), 0.5, closed=True), g)
    f = rasterize(Complement(Ball((0.0, 0.0), 1.5)), g)
    c = Condenser(e, f, g)
    assert c.e_indices.size == e.sum()
    swapped = c.swapped()
    np.testing.assert_array_equal(swapped.E, f)
    with pytest.raises(GeometryError):
        Condenser(e, e, g)
    with pytest.raises(GeometryError):
        Condenser(np.zeros_like(e), f, g)
    # plate poking outside the masked domain
    gm = square_grid(32, 2.0, Ball((0.0, 0.0), 1.8))
    with pytest.raises(GeometryError):
        Condenser(e, rasterize(Complement(Ball((0.0, 0.0), 1.5)), g), gm)


def test_cut_face_weights():
    # Columns at x = 0.5, 1.5, ..., 7.5.  E is the closed box x <= 2.25, so
    # columns 0 and 1; the face from free column 2 to column 1 is cut a
    # quarter of the way in (theta = 1/4).  F (the last column) records no
    # region and keeps theta = 1.
    g = GridDomain.box(2, (0.0, 0.0), (8, 3), 1.0)
    region_e = Box((-10.0, -10.0), (2.25, 10.0))
    e = rasterize(region_e, g)
    f = np.zeros(g.cells, dtype=bool)
    f[-1, :] = True
    cond = Condenser(e, f, g, region_e, None)
    faces, weights = cond.domain.cut_faces
    a, b = g.face_pairs
    column = np.argwhere(g.mask)[:, 0]
    row = np.argwhere(g.mask)[:, 1]
    want = np.flatnonzero((column[a] == 1) & (column[b] == 2) & (row[a] == row[b]))
    np.testing.assert_array_equal(faces, want)
    np.testing.assert_allclose(weights, 4.0, rtol=1e-12)
    # the swapped condenser cuts the same faces; a bare grid cuts none
    np.testing.assert_array_equal(cond.swapped().domain.cut_faces[0], want)
    assert g.cut_faces[0].size == 0
    # the energy weights exactly those faces: (4 - 1) * sum of their squares
    u = np.random.default_rng(4).uniform(0.0, 1.0, g.inside_count)
    extra = 3.0 * np.sum((u[b[want]] - u[a[want]]) ** 2)
    params = EnergyParams(2.0)
    assert energy_value(u, cond.domain, params) - energy_value(u, g, params) == pytest.approx(extra, rel=1e-12)


def test_make_ring_condenser():
    g = square_grid(64, 2.5)
    c = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    assert c.E.sum() > 0 and c.F.sum() > 0
    # E holds the closed inner ball, F the closed exterior of the open ball
    r = np.linalg.norm(g.inside_centers, axis=1)
    np.testing.assert_array_equal(c.E[g.mask], r <= 1.0)
    np.testing.assert_array_equal(c.F[g.mask], r >= 2.0)
    with pytest.raises(DomainError):
        make_ring_condenser((0.0, 0.0), 2.0, 1.0, g)
    with pytest.raises(GeometryError):
        make_ring_condenser((0.0, 0.0), 1.0, 3.0, g)  # outer ball exceeds the box
    # plates that would touch face-to-face at a too-coarse resolution
    coarse = square_grid(6, 1.5)
    with pytest.raises(GeometryError):
        make_ring_condenser((0.0, 0.0), 0.5, 0.76, coarse)


def test_diameter():
    g = square_grid(32, 2.0)
    cells = rasterize(Ball((0.0, 0.0), 1.0, closed=True), g)
    d = diameter(cells, g)
    assert abs(d - 2.0) < 3 * g.h
    with pytest.raises(EmptySetError):
        diameter(np.zeros_like(cells), g)


def test_diameter_matches_brute_force():
    g = square_grid(24, 1.5)
    rng = np.random.default_rng(3)
    cells = np.zeros(g.cells, dtype=bool)
    flat = rng.choice(cells.size, size=40, replace=False)
    cells.ravel()[flat] = True
    centers = g.all_centers().reshape(-1, g.n)[cells.ravel()]
    brute = max(
        float(np.linalg.norm(p - q)) for p in centers for q in centers
    )
    assert diameter(cells, g) == pytest.approx(brute, rel=1e-12)


def brute_diameter(cells, g):
    pts = g.all_centers()[cells]
    return float(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1).max()))


def test_diameter_of_a_large_box_is_its_center_diagonal():
    g = GridDomain.box(3, (0.0, 0.0, 0.0), (24, 24, 24), 0.1)
    cells = np.zeros(g.cells, dtype=bool)
    cells[2:22, 1:23, 3:20] = True
    assert cells.sum() > 4000
    corner_to_corner = 0.1 * np.sqrt(19.0**2 + 21.0**2 + 16.0**2)
    assert diameter(cells, g) == pytest.approx(corner_to_corner, rel=1e-12)


def test_diameter_of_flat_cell_sets():
    """One-cell-thick lines and a slab have flat hulls; the joggled hull still finds the farthest pair."""
    g2 = GridDomain.box(2, (0.0, 0.0), (40, 40), 0.1)
    g3 = GridDomain.box(3, (0.0, 0.0, 0.0), (16, 16, 16), 0.1)
    line2 = np.zeros(g2.cells, dtype=bool)
    line2[3:37, 5] = True
    diag2 = np.eye(40, dtype=bool)
    line3 = np.zeros(g3.cells, dtype=bool)
    line3[4, 2:15, 7] = True
    diag3 = np.zeros(g3.cells, dtype=bool)
    diag3[np.arange(16), np.arange(16), np.arange(16)] = True
    slab = np.zeros(g3.cells, dtype=bool)
    slab[:, 6, :] = True
    for cells, g in ((line2, g2), (diag2, g2), (line3, g3), (diag3, g3), (slab, g3)):
        assert diameter(cells, g) == pytest.approx(brute_diameter(cells, g), rel=1e-12)


def test_point_diameter():
    assert point_diameter(np.array([[1.0, 2.0]])) == 0.0
    assert point_diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)
    # more than n + 1 points, all on one line, go through the joggled hull
    line = np.array([[t, 2.0 * t] for t in (0.0, 0.5, 1.5, 3.0, 1.0)])
    assert point_diameter(line) == pytest.approx(3.0 * np.sqrt(5.0), rel=1e-12)
    with pytest.raises(EmptySetError):
        point_diameter(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# Axis-at-a-time kernels against the reductions they replace, bit for bit
# ---------------------------------------------------------------------------

WIDE = st.floats(-1e100, 1e100)  # squares and their sums stay finite


@st.composite
def point_arrays(draw, elements=WIDE):
    """(pts, center): pts of shape (*lead, n), rank-0..3 lead, in C or Fortran order."""
    n = draw(st.sampled_from([2, 3]))
    lead = draw(st.lists(st.integers(1, 4), max_size=3))
    pts = draw(arrays(np.float64, (*lead, n), elements=elements))
    if draw(st.booleans()):
        pts = np.asfortranarray(pts)
    return pts, draw(arrays(np.float64, (n,), elements=elements))


@settings(max_examples=200, deadline=None)
@given(point_arrays())
def test_radius_is_the_norm_bit_for_bit(case):
    pts, center = case
    assert np.array_equal(radius(pts, center), np.linalg.norm(pts - center, axis=-1))
    if pts.ndim > 1:
        # a center array that broadcasts against pts: the lengths of consecutive steps
        assert np.array_equal(radius(pts[1:], pts[:-1]), np.linalg.norm(np.diff(pts, axis=0), axis=-1))


def test_points_of_another_dimension_are_rejected():
    pts = np.zeros((4, 3))
    with pytest.raises(DomainError, match="dimension 2"):
        Box((0.0, 0.0), (1.0, 1.0)).contains(pts)
    with pytest.raises(DomainError, match="dimension 2"):
        GridDomain.box(3, (0.0,) * 3, (4,) * 3, 0.25, Box((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DomainError, match="center of shape"):
        radius(pts[:, :2], (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="center of shape"):
        Ball((0.0, 0.0), 1.0).contains(pts)


@settings(max_examples=100, deadline=None)
@given(point_arrays(st.floats(-1e3, 1e3) | st.just(math.nan)), st.data())
def test_box_contains_is_the_all_reduction(case, data):
    pts, corner = case
    size = data.draw(arrays(np.float64, corner.shape, elements=st.floats(0.0, 1e3)))
    box = Box(tuple(corner), tuple(corner + size))
    want = np.all((pts >= np.asarray(box.lo)) & (pts <= np.asarray(box.hi)), axis=-1)
    assert np.array_equal(box.contains(pts), want)


@settings(max_examples=100, deadline=None)
@given(point_arrays(st.floats(-2.0, 10.0)), st.floats(0.05, 10.0), st.data())
def test_locate_is_the_all_reduction(case, h, data):
    # points from two cells below the grid to two cells past its largest extent, on every axis
    steps, origin = case
    pts = origin + h * steps
    cells = tuple(data.draw(st.lists(st.integers(1, 8), min_size=len(origin), max_size=len(origin))))
    g = GridDomain.box(len(origin), tuple(origin), cells, h)
    idx, valid = g.locate(pts)
    raw = np.floor((pts - origin) / h).astype(np.int64)
    limits = np.asarray(cells)
    assert np.array_equal(valid, np.all((raw >= 0) & (raw < limits), axis=-1))
    assert np.array_equal(idx, np.clip(raw, 0, limits - 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_cell_centers_are_the_meshgrid_centers(n, data):
    cells = tuple(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    origin = tuple(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    h = data.draw(st.floats(1e-3, 10.0))
    axes = [o + (np.arange(c) + 0.5) * h for o, c in zip(origin, cells)]
    want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    full = GridDomain.box(n, origin, cells, h)
    assert np.array_equal(full.all_centers(), want)
    assert np.array_equal(full.inside_centers, want.reshape(-1, n))
    # a masked grid keeps the largest face-connected component of a random cell set
    raw = data.draw(arrays(bool, cells))
    labels, count = ndimage.label(raw, ndimage.generate_binary_structure(n, 1))
    mask = labels == 1 + np.argmax(np.bincount(labels.ravel())[1:]) if count else np.ones(cells, dtype=bool)
    masked = GridDomain(n, origin, cells, h, mask)
    assert np.array_equal(masked.inside_centers, want[mask])
    assert np.array_equal(masked.inside_centers, masked.all_centers()[mask])
