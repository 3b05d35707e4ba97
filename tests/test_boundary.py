"""Boundary accessibility probes and cluster-set estimates."""

import math
import tracemalloc

import numpy as np
import pytest

from qcap import (
    Affine,
    Annulus,
    Ball,
    ClusterSetEstimate,
    DomainError,
    EmptySetError,
    GeometryError,
    GridDomain,
    Identity,
    RadialPower,
    estimate_cluster_set,
    probe_strong_accessibility,
    rasterize,
    sample_shell_continua,
)
from qcap.boundary import _frame, _inward_direction, _merge_points, _shell_crossing
from qcap.grid import connected, point_diameter

from grid_helpers import all_centers


def disk_grid(cells=64, half=2.0, r=1.9):
    return GridDomain.box(2, (-half, -half), (cells, cells), 2 * half / cells, Ball((0.0, 0.0), r))


def boundary_point(r=1.9, angle=0.785398):
    return (r * np.cos(angle), r * np.sin(angle))


def plate_e(g):
    """The probe's plate E: the closed ball of radius 0.5 about the origin."""
    return rasterize(Ball((0.0, 0.0), 0.5, closed=True), g)


def test_shell_crossing_is_relative_to_the_domain():
    # The access grid of the CLI benchmark: a 64^2 disc of radius 1.9 in [-2.2, 2.2]^2.
    g = GridDomain.box(2, (-2.2, -2.2), (64, 64), 4.4 / 64, Ball((0.0, 0.0), 1.9))
    x0 = np.array(boundary_point())
    c = all_centers(g)
    dist = np.linalg.norm(c - x0, axis=-1)
    crosses = _shell_crossing(x0, 0.9, 0.3, g)
    # A band along the domain's boundary, inside U, touches the outside of
    # the domain in both balls but never reaches the sphere of radius r_u.
    band = g.mask & (np.linalg.norm(c, axis=-1) > 1.7) & (dist > 0.2) & (dist < 0.8) & (c[..., 1] > c[..., 0])
    assert connected(band) and (band & (dist < 0.3)).any()
    assert not crosses(band)
    # Seeds 6 and 9 draw a direction whose tube only runs along the boundary;
    # the sampler skips it, so every kept tube reaches past both spheres.
    for seed in (0, 1, 6, 9):
        for tube in sample_shell_continua(x0, 0.9, 0.3, plate_e(g), g, 8, np.random.default_rng(seed)):
            assert crosses(tube)
            assert dist[tube].min() < 0.3 and dist[tube].max() >= 0.9


def test_cluster_estimate_from_points():
    single = ClusterSetEstimate.from_points(np.array([[1.0, 2.0]]))
    assert single.diameter == 0.0
    pair = ClusterSetEstimate.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert pair.diameter == pytest.approx(5.0)
    with pytest.raises(EmptySetError):
        ClusterSetEstimate.from_points(np.zeros((0, 2)))


def test_merge_points_chains_and_keeps_first_member_order():
    # 0 and 1.8 are farther apart than the radius but chain through 0.9;
    # the far point has the lowest index, so its group comes first
    pts = np.array([[10.0, 0.0], [0.0, 0.0], [1.8, 0.0], [0.9, 0.0]])
    est = _merge_points(pts, 1.0)
    np.testing.assert_allclose(est.points, [[10.0, 0.0], [0.9, 0.0]], rtol=1e-15)
    assert est.diameter == pytest.approx(9.1)
    assert len(_merge_points(pts, 0.5).points) == 4


def test_sample_shell_continua_basic():
    g = disk_grid()
    x0 = boundary_point()
    tubes = sample_shell_continua(x0, 0.9, 0.3, plate_e(g), g, 6, np.random.default_rng(0))
    assert len(tubes) == 6
    for tube in tubes:
        assert tube.any()
        assert connected(tube)
        assert not (tube & ~g.mask).any()


def test_sample_shell_continua_deterministic():
    g = disk_grid()
    x0 = boundary_point()
    e_cells = plate_e(g)
    a = sample_shell_continua(x0, 0.9, 0.3, e_cells, g, 4, np.random.default_rng(11))
    b = sample_shell_continua(x0, 0.9, 0.3, e_cells, g, 4, np.random.default_rng(11))
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta, tb)


def test_sample_shell_continua_skip_the_plate_e():
    # At r_u = 1.6 some radial tubes from x0 reach the closed ball E of radius
    # 0.5 (its edge is 1.4 from x0); the sampler skips them.
    g = GridDomain.box(2, (-2.2, -2.2), (64, 64), 4.4 / 64, Ball((0.0, 0.0), 1.9))
    e_cells = plate_e(g)
    for seed in (0, 1):
        tubes = sample_shell_continua(boundary_point(), 1.6, 0.3, e_cells, g, 8, np.random.default_rng(seed))
        assert len(tubes) == 8
        assert not any((tube & e_cells).any() for tube in tubes)


def test_sample_shell_continua_keep_each_tube_once():
    # On the 16^2 access grid neighbouring directions rasterize to the same
    # cells: of 100 tubes kept, 42 were distinct.
    g = GridDomain.box(2, (-2.2, -2.2), (16, 16), 4.4 / 16, Ball((0.0, 0.0), 1.9))
    e_cells = plate_e(g)
    tubes = sample_shell_continua(boundary_point(), 0.9, 0.3, e_cells, g, 40, np.random.default_rng(0))
    assert len({tube.tobytes() for tube in tubes}) == 40
    with pytest.raises(GeometryError, match="only 44 of 100"):
        sample_shell_continua(boundary_point(), 0.9, 0.3, e_cells, g, 100, np.random.default_rng(0))


def test_sample_shell_continua_validation():
    g = disk_grid()
    e_cells = plate_e(g)
    with pytest.raises(DomainError):
        sample_shell_continua(boundary_point(), 0.3, 0.9, e_cells, g, 4)
    with pytest.raises(DomainError):
        sample_shell_continua(boundary_point(), 0.9, 0.3, e_cells, g, 0)
    with pytest.raises(DomainError, match="dimension 2"):
        sample_shell_continua((0.0, 0.0, 0.0), 0.9, 0.3, e_cells, g, 4)
    # a point far outside the domain admits no tubes at all
    with pytest.raises(GeometryError):
        sample_shell_continua((40.0, 40.0), 0.9, 0.3, e_cells, g, 4)


@pytest.mark.parametrize("count", [2.5, 3.0, True])
def test_sample_shell_continua_takes_an_integer_count(count):
    # a count of 2.5 never equalled a tube count, so every candidate tube was kept
    g = disk_grid()
    with pytest.raises(DomainError, match="integer count"):
        sample_shell_continua(boundary_point(), 0.9, 0.3, plate_e(g), g, count)
    assert len(sample_shell_continua(boundary_point(), 0.9, 0.3, plate_e(g), g, np.int64(3))) == 3


def tube_centroids(tubes, g):
    return np.array([all_centers(g)[tube].mean(axis=0) for tube in tubes])


def punctured_box(n, cells, half):
    """The box grid with the cell holding the origin taken out, so the origin is a boundary point."""
    mask = np.ones((cells,) * n, dtype=bool)
    mask[(cells // 2,) * n] = False
    return GridDomain(n, (-half,) * n, (cells,) * n, 2 * half / cells, mask)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shell_continua_spread_around_a_puncture(seed):
    # no plate: x0 is the puncture itself
    g2 = punctured_box(2, 64, 2.0)
    none = np.zeros(g2.cells, dtype=bool)
    tubes = sample_shell_continua((0.0, 0.0), 0.9, 0.3, none, g2, 8, np.random.default_rng(seed))
    c = tube_centroids(tubes, g2)
    angles = np.sort(np.degrees(np.arctan2(c[:, 1], c[:, 0])) % 360)
    assert np.diff(np.append(angles, angles[0] + 360)).max() <= 2 * 360 / 8
    g3 = punctured_box(3, 24, 1.5)
    none = np.zeros(g3.cells, dtype=bool)
    tubes = sample_shell_continua((0.0,) * 3, 0.9, 0.3, none, g3, 8, np.random.default_rng(seed))
    c = tube_centroids(tubes, g3)
    assert (c > 0).any(axis=0).all() and (c < 0).any(axis=0).all()


def test_interior_x0_is_rejected():
    g = disk_grid()
    with pytest.raises(DomainError, match="interior"):
        sample_shell_continua((-0.6, 0.0), 0.9, 0.3, plate_e(g), g, 4)
    _, r_u, r_v, e_cells, p, tubes = make_probe(g, count=2)
    with pytest.raises(DomainError, match="interior"):
        probe_strong_accessibility((-0.6, 0.0), r_u, r_v, e_cells, p, tubes, g)


def make_probe(g, count=5, p=2.0):
    """The probe's arguments before the grid: x0, r_u, r_v, E's cells, p and the sampled continua."""
    x0, e_cells = boundary_point(), plate_e(g)
    tubes = sample_shell_continua(x0, 0.9, 0.3, e_cells, g, count, np.random.default_rng(3))
    return x0, 0.9, 0.3, e_cells, p, tubes


def test_probe_strong_accessibility():
    g = disk_grid()
    args = make_probe(g)
    rep = probe_strong_accessibility(*args, g)
    assert set(rep) == {"delta_hat", "per_continuum", "converged"}
    assert rep["converged"]
    assert len(rep["per_continuum"]) == 5
    assert all(set(item) == {"capacity", "converged"} for item in rep["per_continuum"])
    caps = [item["capacity"] for item in rep["per_continuum"]]
    assert rep["delta_hat"] == pytest.approx(min(caps))
    assert rep["delta_hat"] > 0
    # every tube spans the shell, so its diameter reaches the gap r_u - r_v
    tubes = args[-1]
    assert min(point_diameter(all_centers(g)[tube]) for tube in tubes) >= 0.9 - 0.3 - 2 * g.h


def test_probe_geometry_validation():
    g = disk_grid()
    x0, r_u, r_v, e_cells, p, tubes = make_probe(g, count=3)
    # V outside U
    with pytest.raises(DomainError):
        probe_strong_accessibility(x0, r_v, r_u, e_cells, p, tubes, g)
    with pytest.raises(GeometryError):
        probe_strong_accessibility(x0, r_u, r_v, e_cells, p, [], g)
    # a disconnected continuum is rejected
    torn = tubes[0].copy()
    torn[10:12, 31:33] = True  # far island on the other side of the disk
    with pytest.raises(GeometryError, match="face-connected"):
        probe_strong_accessibility(x0, r_u, r_v, e_cells, p, [torn], g)
    # a continuum that stops short of the sphere of radius r_u is rejected
    short = tubes[0] & (np.linalg.norm(all_centers(g) - np.asarray(x0), axis=-1) < 0.7)
    with pytest.raises(GeometryError, match="cross"):
        probe_strong_accessibility(x0, r_u, r_v, e_cells, p, [short], g)


def test_estimate_cluster_set_identity_singleton():
    g = GridDomain.box(
        2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0)
    )
    b = (2.0 * np.cos(0.3), 2.0 * np.sin(0.3))
    est = estimate_cluster_set(Identity(), b, sequences=5, depth=10, grid=g)
    assert est.diameter < 3 * g.h
    got = np.asarray(est.points[0])
    assert np.linalg.norm(got - np.asarray(b)) < 3 * g.h


@pytest.mark.parametrize("sequences, depth", [(2.5, 10), (3.0, 10), (5, 2.5), (5, 3.0), (5, 0)])
def test_estimate_cluster_set_takes_integer_counts(sequences, depth):
    # 2.5 or 3.0 for either died with a TypeError
    g = GridDomain.box(2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0))
    b = (2.0 * np.cos(0.3), 2.0 * np.sin(0.3))
    with pytest.raises(DomainError, match="integers >= 1"):
        estimate_cluster_set(Identity(), b, sequences, depth, g)
    want = estimate_cluster_set(Identity(), b, 5, 10, g)
    assert estimate_cluster_set(Identity(), b, np.int64(5), np.int64(10), g) == want


def test_estimate_cluster_set_radial_preimage():
    g = GridDomain.box(
        2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0)
    )
    m_inv = RadialPower(2.0, (0.0, 0.0)).inverse()
    b = (0.5 * np.cos(1.1), 0.5 * np.sin(1.1))  # inner boundary circle
    est = estimate_cluster_set(m_inv, b, sequences=5, depth=10, grid=g)
    assert est.diameter < 3 * g.h
    want = m_inv.evaluate(np.asarray(b)[None, :])[0]
    assert np.linalg.norm(np.asarray(est.points[0]) - want) < 3 * g.h


def test_estimate_cluster_set_builds_no_center_array():
    # the inward direction gathers its box's centers from the per-axis
    # vectors, so its peak stays below half the grid's whole center array
    g = GridDomain.box(
        2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0)
    )
    b = (2.0 * np.cos(0.3), 2.0 * np.sin(0.3))
    tracemalloc.start()
    try:
        estimate_cluster_set(RadialPower(2.0, (0.0, 0.0)).inverse(), b, sequences=5, depth=10, grid=g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.inside_count * g.n * 8 / 2


def test_estimate_cluster_set_validation():
    g = GridDomain.box(
        2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0)
    )
    with pytest.raises(DomainError):
        estimate_cluster_set(Identity(), (1.2, 0.0), 5, 10, g)  # interior point
    with pytest.raises(DomainError):
        estimate_cluster_set(Identity(), (2.0, 0.0), 0, 10, g)
    with pytest.raises(DomainError):
        estimate_cluster_set(Identity(), (2.0, 0.0, 0.0), 5, 10, g)


@pytest.mark.parametrize(
    "n, b",
    [
        (2, (-1.0, 0.1)),
        (2, (0.1, -1.0)),
        (2, (0.999, 0.2)),
        (2, (0.2, 0.999)),
        (3, (-1.0, 0.1, 0.2)),
        (3, (0.1, 0.2, 0.999)),
    ],
)
def test_estimate_cluster_set_on_box_faces(n, b):
    # beyond the grid box is outside the domain, so every face of a box grid
    # without a region is boundary
    cells = 64 if n == 2 else 16
    g = GridDomain.box(n, (-1.0,) * n, (cells,) * n, 2.0 / cells)
    est = estimate_cluster_set(Identity(), b, sequences=5, depth=10, grid=g)
    assert len(est.points) == 1
    assert np.linalg.norm(np.asarray(est.points[0]) - b) <= 2 * g.h
    with pytest.raises(DomainError):
        estimate_cluster_set(Identity(), (0.1,) * n, 5, 10, g)  # interior point


def loop_tails(b, sequences, depth, grid):
    """Reference: each candidate tested on its own; a sequence's tail is its
    deepest step with an inside candidate, the first one at that step."""
    b = np.asarray(b, dtype=float)
    e_in = _inward_direction(b, grid)
    tangents = _frame(e_in)
    r0 = 8 * grid.h
    tails = []
    for j in range(sequences):
        tilt = 0.45 * j / max(1, sequences - 1)
        omega = 2 * math.pi * (j + 1) / sequences
        tail = None
        for k in range(1, depth + 1):
            for shrink in (1.0, 0.5, 0.0):
                wobble = math.cos(omega * k) * tangents[0]
                if len(tangents) > 1:
                    wobble = wobble + math.sin(omega * k) * tangents[1]
                direction = e_in + tilt * shrink * wobble
                direction /= np.linalg.norm(direction)
                x = b + r0 * 2.0**-k * direction
                if grid.contains(x[None, :])[0]:
                    tail = x
                    break
        if tail is not None:
            tails.append(tail)
    return np.asarray(tails)


@pytest.mark.parametrize(
    "n, at, sequences, depth",
    [(2, 0.3, 5, 10), (2, 2.1, 8, 14), (2, 4.0, 1, 3), (3, 0.3, 6, 12), (3, 1.7, 3, 5)],
)
def test_estimate_cluster_set_matches_the_candidate_loop(n, at, sequences, depth):
    cells = 64 if n == 2 else 24
    g = GridDomain.box(n, (-2.2,) * n, (cells,) * n, 4.4 / cells, Annulus((0.0,) * n, 0.5, 2.0))
    u = np.array([math.cos(at), math.sin(at), 0.3][:n])
    for r in (2.0, 0.5):
        b = tuple(r * u / np.linalg.norm(u))
        stretch = Affine(tuple(map(tuple, (1e4 * np.eye(n)).tolist())), (0.0,) * n)
        want = _merge_points(stretch.evaluate(loop_tails(b, sequences, depth, g)), 2 * g.h)
        got = estimate_cluster_set(stretch, b, sequences, depth, g)
        assert got.points == want.points and got.diameter == want.diameter


def test_estimate_cluster_set_reproduces_recorded_points():
    """A stretching map keeps the tails apart, so every sequence's tail shows in the result."""
    g2 = GridDomain.box(
        2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0)
    )
    b2 = (2.0 * np.cos(0.7), 2.0 * np.sin(0.7))
    est = estimate_cluster_set(Affine(((40.0, 0.0), (0.0, 40.0)), (0.0, 0.0)), b2, 6, 12, g2)
    want2 = [
        (60.17226598334865, 50.60995677547403),
        (60.25948758645059, 50.52269827974801),
        (60.02401963195429, 50.80445568426975),
        (60.44911591585165, 50.37741560395986),
        (59.91812355399047, 51.00861841078811),
        (60.64227134253208, 50.27508102105833),
    ]
    np.testing.assert_allclose(est.points, want2, rtol=1e-13)
    assert est.diameter == pytest.approx(1.0307604580023837, rel=1e-13)
    g3 = GridDomain.box(3, (-1.2,) * 3, (32,) * 3, 2.4 / 32, Ball((0.0,) * 3, 1.0))
    b3 = tuple(np.array([0.6, 0.64, 0.48]) / np.linalg.norm([0.6, 0.64, 0.48]))
    stretch = Affine(tuple(map(tuple, (400.0 * np.eye(3)).tolist())), (0.0, 0.0, 0.0))
    est = estimate_cluster_set(stretch, b3, 7, 4, g3)
    want3 = [
        (231.1739618943034, 246.20963550868095, 184.84110242537938),
        (231.76424322237708, 246.4225417728756, 183.91021605928046),
        (230.87126142029436, 245.27267847859883, 186.84338241481154),
        (230.79680060818148, 248.69121876115594, 182.67890361828876),
        (233.71911626878838, 243.3570371851105, 186.9298924255672),
        (227.89904935180044, 250.435700267737, 185.10032160898965),
        (236.92846315516408, 244.14829691323536, 183.3338131018315),
    ]
    np.testing.assert_allclose(est.points, want3, rtol=1e-13)
    assert est.diameter == pytest.approx(11.143711539717557, rel=1e-13)


@pytest.mark.parametrize(
    "n, region",
    [
        (2, Annulus((0.0, 0.0), 0.5, 2.0)),
        (2, Ball((0.3, -0.2), 1.7)),
        (2, None),
        (3, Ball((0.1, 0.2, 0.3), 1.6)),
        (3, None),
    ],
)
def test_inward_direction_matches_the_search_over_all_centers(n, region):
    """The windowed search gives, bit for bit, the mean over every inside center within 3h of the nearest."""
    cells = 96 if n == 2 else 28
    grid = GridDomain.box(n, (-2.2,) * n, (cells,) * n, 4.4 / cells, region)
    rng = np.random.default_rng(n)
    # Points on the domain's edges, deep inside, and outside the grid box.
    points = np.concatenate([rng.uniform(-3.5, 3.5, (60, n)), rng.normal(size=(60, n))])
    for b in points:
        centers = grid.inside_centers_in(())
        dist = np.linalg.norm(centers - b, axis=1)
        v = centers[dist <= dist.min() + 3 * grid.h].mean(axis=0) - b
        assert np.array_equal(_inward_direction(b, grid), v / np.linalg.norm(v))
