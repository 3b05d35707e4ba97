"""Grid domains, regions, rasterization, and condensers."""

import math
import tracemalloc

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
    make_ring_condenser,
    rasterize,
)
import qcap.grid
from qcap.energy import EnergyParams, energy_value
from qcap.grid import connected, dilate_faces, graph_distance, point_diameter, radius
from qcap.mappings import Affine, MappedRegion, RadialPower


def square_grid(cells=32, half=2.0, region=None):
    return GridDomain.box(2, (-half, -half), (cells, cells), 2 * half / cells, region)


def test_grid_box_basic():
    g = square_grid(32, 2.0)
    assert g.n == 2
    assert g.h == pytest.approx(0.125)
    assert g.extent == pytest.approx((4.0, 4.0))
    assert g.inside_count == 32 * 32
    assert g.mask.all()
    centers = g.all_centers()[:, 0, 0]
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
    inside = g.inside_centers_in(())
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


@pytest.mark.parametrize("shape", [(1, 1), (4, 7), (3, 1, 5), (6, 6, 6)])
def test_full_cell_array_is_connected_without_labelling(shape, monkeypatch):
    # a box is face-connected by construction: no component labelling, and
    # a full-box grid builds without one
    labels = []
    monkeypatch.setattr(qcap.grid.ndimage, "label", lambda *args: labels.append(args))
    assert connected(np.ones(shape, dtype=bool))
    GridDomain.box(len(shape), (0.0,) * len(shape), shape, 1.0)
    assert labels == []


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


@st.composite
def _embedded_sets(draw):
    """A random 2D or 3D cell set placed at a random offset in a larger empty array."""
    n = draw(st.sampled_from([2, 3]))
    inner = tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    pads = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n))
    cells = np.zeros([a + c + b for c, (a, b) in zip(inner, pads)], dtype=bool)
    cells[tuple(slice(a, a + c) for c, (a, _) in zip(inner, pads))] = draw(arrays(bool, inner))
    return cells


@settings(max_examples=300, deadline=None)
@given(_embedded_sets())
def test_connected_matches_labelling_the_uncropped_array(cells):
    _, count = ndimage.label(cells, ndimage.generate_binary_structure(cells.ndim, 1))
    assert connected(cells) == (count <= 1)


def test_connected_labels_only_the_bounding_box(monkeypatch):
    shapes = []
    label = ndimage.label
    monkeypatch.setattr(qcap.grid.ndimage, "label", lambda cells, s: shapes.append(cells.shape) or label(cells, s))
    assert not connected(_cells((10, 10, 10), (2, 3, 4), (4, 3, 6)))
    assert connected(_cells((10, 10, 10), (2, 3, 4), (2, 3, 5), (2, 4, 5)))
    assert connected(_cells((9, 7), (5, 1), (5, 2), (5, 3)))  # fills its box: not labelled
    assert shapes == [(3, 1, 3), (1, 2, 2)]


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
    (faces, weights), (across, _) = cond.domain.cut_faces
    # the axis-0 faces from column 1 to column 2, at flat indices of the (7, 3) face array
    want = np.ravel_multi_index((np.ones(3, dtype=int), np.arange(3)), (7, 3))
    np.testing.assert_array_equal(faces, want)
    assert across.size == 0
    np.testing.assert_allclose(weights, 4.0, rtol=1e-12)
    # the swapped condenser cuts the same faces; a bare grid cuts none
    swapped = cond.swapped().domain.cut_faces
    np.testing.assert_array_equal(swapped[0][0], want)
    assert swapped[1][0].size == 0
    assert not any(flat.size for flat, _ in g.cut_faces)
    # the energy weights exactly those faces: (4 - 1) * sum of their squares
    u = np.random.default_rng(4).uniform(0.0, 1.0, g.inside_count)
    extra = 3.0 * np.sum((u[g.inside_index[2]] - u[g.inside_index[1]]) ** 2)
    params = EnergyParams(2.0)
    assert energy_value(u, cond.domain, params) - energy_value(u, g, params) == pytest.approx(extra, rel=1e-12)


def test_make_ring_condenser():
    g = square_grid(64, 2.5)
    c = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    assert c.E.sum() > 0 and c.F.sum() > 0
    # E holds the closed inner ball, F the closed exterior of the open ball
    r = np.linalg.norm(g.inside_centers_in(()), axis=1)
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
    d = point_diameter(g.all_centers()[cells])
    assert abs(d - 2.0) < 3 * g.h
    with pytest.raises(EmptySetError):
        point_diameter(g.all_centers()[np.zeros_like(cells)])


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
    assert point_diameter(g.all_centers()[cells]) == pytest.approx(brute, rel=1e-12)


def brute_diameter(cells, g):
    pts = g.all_centers()[cells]
    return float(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1).max()))


def test_diameter_of_a_large_box_is_its_center_diagonal():
    g = GridDomain.box(3, (0.0, 0.0, 0.0), (24, 24, 24), 0.1)
    cells = np.zeros(g.cells, dtype=bool)
    cells[2:22, 1:23, 3:20] = True
    assert cells.sum() > 4000
    corner_to_corner = 0.1 * np.sqrt(19.0**2 + 21.0**2 + 16.0**2)
    assert point_diameter(g.all_centers()[cells]) == pytest.approx(corner_to_corner, rel=1e-12)


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
        assert point_diameter(g.all_centers()[cells]) == pytest.approx(brute_diameter(cells, g), rel=1e-12)


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


@pytest.mark.parametrize("n", [2, 3])
def test_regions_of_another_dimension_are_rejected_on_the_grid(n):
    other = (0.0,) * (5 - n)
    grid = GridDomain.box(n, (0.0,) * n, (4,) * n, 0.25)
    for region in (Ball(other, 1.0), Annulus(other, 0.5, 1.0), Complement(Ball(other, 1.0, closed=True))):
        with pytest.raises(DomainError, match="center of shape"):
            GridDomain.box(n, (0.0,) * n, (4,) * n, 0.25, region)
        with pytest.raises(DomainError, match="center of shape"):
            rasterize(region, grid)
    with pytest.raises(DomainError, match=f"dimension {5 - n}"):
        rasterize(Box(other, (1.0,) * (5 - n)), grid)


def _tie_regions(n):
    """Every region type, around the cell center c of the h = 0.25 grids below.

    Their boundaries pass through cell centers: |x - c| is 0.5, 0.75 or 1.25
    exactly (3-4-5 offsets included), and the box faces lie on center planes.
    """
    c = (0.125,) * n
    ball = Ball(c, 0.75, closed=True)
    box = Box(tuple(x - 0.5 for x in c), tuple(x + 0.75 for x in c))
    stretch = Affine(tuple(tuple(2.0 if i == j else 0.0 for j in range(n)) for i in range(n)), (-0.25,) * n)
    return [
        ball,
        Ball(c, 0.75),
        Ball(c, 1.25, closed=True),
        Annulus(c, 0.5, 1.25),
        SphereShell(c, 0.5, 0.5),
        box,
        Complement(ball),
        Union((Ball(c, 0.5, closed=True), box)),
        Intersection((Annulus(c, 0.25, 1.25), Complement(box))),
        Complement(Union((Intersection((ball, box)), SphereShell(c, 1.0, 0.5)))),
        Union(()),
        Intersection(()),
        MappedRegion(ball, stretch),
        Complement(MappedRegion(Ball(c, 0.75, closed=True), RadialPower(1.5, c))),
        Intersection((Complement(MappedRegion(box, stretch)), Union((ball, Complement(Annulus(c, 0.5, 1.0)))))),
    ]


@pytest.mark.parametrize("n, origin", [(2, (-1.5, -1.25)), (3, (-1.5, -1.25, -1.0))])
def test_tie_regions_pass_through_cell_centers(n, origin):
    grid = GridDomain.box(n, origin, (12,) * n, 0.25)
    ball = _tie_regions(n)[0]
    assert ball.contains(grid.all_centers()[(6, 5, 4)[:n]])  # its center c is a cell center
    assert (rasterize(ball, grid) != rasterize(Ball(ball.center, ball.r), grid)).any()  # cells on its sphere


@pytest.mark.parametrize(
    "n, origin, cells, h",
    [
        (2, (-1.5, -1.25), (12, 12), 0.25),
        (3, (-1.5, -1.25, -1.0), (12, 12, 12), 0.25),
        (2, (-1.23, -0.87), (31, 29), 0.1),  # no ties: centers and radii round
        (3, (-1.23, -0.87, -1.01), (17, 19, 18), 1.0 / 7.0),
    ],
)
def test_grid_masks_are_the_point_predicate_bit_for_bit(n, origin, cells, h):
    grid = GridDomain.box(n, origin, cells, h)
    masked = GridDomain.box(n, origin, cells, h, Ball((0.125,) * n, 1.1))
    centers = grid.all_centers()
    for region in _tie_regions(n):
        want = region.contains(centers)
        assert want.shape == grid.cells and want.dtype == bool
        assert np.array_equal(rasterize(region, grid), want)
        assert np.array_equal(rasterize(region, masked), want & masked.mask)
        if want.any() and connected(want):
            assert np.array_equal(GridDomain.box(n, origin, cells, h, region).mask, want)
        else:
            with pytest.raises(GeometryError):
                GridDomain.box(n, origin, cells, h, region)


def test_ring_setup_memory():
    # criterion 3's grid and condenser: a (256, 256, 2) center array alone is 1.05 MB
    tracemalloc.start()
    try:
        grid = GridDomain.box(2, (-2.5, -2.5), (256, 256), 5.0 / 256)
        make_ring_condenser((0.0, 0.0), 1.0, 2.0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_annulus_box_memory():
    # the lab-cli kcoef grid, the 1024² annulus 0.5 < |x| < 1.9 in [-2, 2]²:
    # 5.78 MB, 10.50 MB with the predicate run on the whole grid at once
    tracemalloc.start()
    try:
        GridDomain.box(2, (-2.0, -2.0), (1024, 1024), 4.0 / 1024, Annulus((0.0, 0.0), 0.5, 1.9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.2e6


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
    assert np.array_equal(np.stack(np.broadcast_arrays(*full.axis_centers()), axis=-1), want)
    assert np.array_equal(full.inside_centers_in(()), want.reshape(-1, n))
    # a masked grid keeps the largest face-connected component of a random cell set
    raw = data.draw(arrays(bool, cells))
    labels, count = ndimage.label(raw, ndimage.generate_binary_structure(n, 1))
    mask = labels == 1 + np.argmax(np.bincount(labels.ravel())[1:]) if count else np.ones(cells, dtype=bool)
    masked = GridDomain(n, origin, cells, h, mask)
    assert np.array_equal(masked.inside_centers_in(()), want[mask])
    assert np.array_equal(masked.inside_centers_in(()), masked.all_centers()[mask])
    # a box of leading-axis slices gives its inside cells' rows of all the inside centers
    box = tuple(
        slice(*sorted(data.draw(st.lists(st.integers(0, c), min_size=2, max_size=2))))
        for c in cells[: data.draw(st.integers(0, n))]
    )
    rows = masked.inside_index[box]
    assert np.array_equal(masked.inside_centers_in(box), masked.inside_centers_in(())[rows[rows >= 0]])


@pytest.mark.parametrize(
    "n, origin, cells, h",
    [(2, (-1.5, -1.25), (12, 12), 0.25), (3, (-1.23, -0.87, -1.01), (17, 19, 18), 1.0 / 7.0)],
)
def test_grid_masks_in_small_slabs_are_the_point_predicate(n, origin, cells, h, monkeypatch):
    # 30 cells per slab: the predicate runs on one or two rows at a time
    monkeypatch.setattr(qcap.grid, "SLAB_CELLS", 30)
    assert len(qcap.grid.row_slabs(cells)) == (6 if n == 2 else 17)
    test_grid_masks_are_the_point_predicate_bit_for_bit(n, origin, cells, h)
