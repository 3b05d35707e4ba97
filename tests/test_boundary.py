"""Boundary accessibility probes and cluster-set estimates."""

import numpy as np
import pytest

from qcap import (
    AccessibilityProbe,
    Annulus,
    Ball,
    ClusterSetEstimate,
    DomainError,
    EmptySetError,
    GeometryError,
    GridDomain,
    Identity,
    RadialPower,
    boundary_layer,
    estimate_cluster_set,
    probe_strong_accessibility,
    rasterize,
    sample_shell_continua,
)
from qcap.boundary import _merge_points
from qcap.grid import connected


def disk_grid(cells=64, half=2.0, r=1.9):
    return GridDomain.box(2, (-half, -half), (cells, cells), 2 * half / cells, Ball((0.0, 0.0), r))


def boundary_point(r=1.9, angle=0.785398):
    return (r * np.cos(angle), r * np.sin(angle))


def test_boundary_layer():
    cells = np.zeros((6, 6), dtype=bool)
    cells[1:5, 1:5] = True
    layer = boundary_layer(cells)
    assert layer.sum() == 12  # the ring of the 4x4 block
    assert not layer[2:4, 2:4].any()


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
    tubes = sample_shell_continua(x0, 0.9, 0.3, g, 6, np.random.default_rng(0))
    assert len(tubes) == 6
    for tube in tubes:
        assert tube.any()
        assert connected(tube)
        assert not (tube & ~g.mask).any()


def test_sample_shell_continua_deterministic():
    g = disk_grid()
    x0 = boundary_point()
    a = sample_shell_continua(x0, 0.9, 0.3, g, 4, np.random.default_rng(11))
    b = sample_shell_continua(x0, 0.9, 0.3, g, 4, np.random.default_rng(11))
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta, tb)


def test_sample_shell_continua_validation():
    g = disk_grid()
    with pytest.raises(DomainError):
        sample_shell_continua(boundary_point(), 0.3, 0.9, g, 4)
    with pytest.raises(DomainError):
        sample_shell_continua(boundary_point(), 0.9, 0.3, g, 0)
    # a point far outside the domain admits no tubes at all
    with pytest.raises(GeometryError):
        sample_shell_continua((40.0, 40.0), 0.9, 0.3, g, 4)


def tube_centroids(tubes, g):
    return np.array([g.all_centers()[tube].mean(axis=0) for tube in tubes])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shell_continua_spread_around_an_interior_point(seed):
    g2 = GridDomain.box(2, (-2.0, -2.0), (64, 64), 4.0 / 64)
    c = tube_centroids(sample_shell_continua((0.0, 0.0), 0.9, 0.3, g2, 8, np.random.default_rng(seed)), g2)
    angles = np.sort(np.degrees(np.arctan2(c[:, 1], c[:, 0])) % 360)
    assert np.diff(np.append(angles, angles[0] + 360)).max() <= 2 * 360 / 8
    g3 = GridDomain.box(3, (-1.5,) * 3, (24,) * 3, 3.0 / 24)
    c = tube_centroids(sample_shell_continua((0.0,) * 3, 0.9, 0.3, g3, 8, np.random.default_rng(seed)), g3)
    assert (c > 0).any(axis=0).all() and (c < 0).any(axis=0).all()


def make_probe(g, count=5, p=2.0):
    x0 = boundary_point()
    tubes = sample_shell_continua(x0, 0.9, 0.3, g, count, np.random.default_rng(3))
    return AccessibilityProbe(
        x0=x0,
        U=Ball(x0, 0.9),
        V=Ball(x0, 0.3),
        E=rasterize(Ball((0.0, 0.0), 0.5, closed=True), g),
        p=p,
        sampled_continua=tubes,
    )


def test_probe_strong_accessibility():
    g = disk_grid()
    probe = make_probe(g)
    rep = probe_strong_accessibility(probe, g)
    assert rep["converged"]
    assert len(rep["per_continuum"]) == 5
    caps = [item["capacity"] for item in rep["per_continuum"]]
    assert rep["delta_hat"] == pytest.approx(min(caps))
    assert rep["delta_hat"] > 0
    assert rep["min_diam_f"] == pytest.approx(
        min(item["diameter"] for item in rep["per_continuum"])
    )
    # every tube spans the shell, so its diameter reaches the gap r_u - r_v
    assert rep["min_diam_f"] >= 0.9 - 0.3 - 2 * g.h
    # the enclosing radius is at most the domain's circumscribed radius
    assert rep["enclosing_radius"] <= 1.9 + g.h
    assert rep["geometric_bound"] > 0
    # the probe realizes the geometric lower bound at C = 1 here
    assert rep["delta_hat"] >= rep["geometric_bound"]


def test_probe_geometry_validation():
    g = disk_grid()
    probe = make_probe(g, count=3)
    # V outside U
    bad = AccessibilityProbe(
        x0=probe.x0,
        U=Ball(probe.x0, 0.3),
        V=Ball(probe.x0, 0.9),
        E=probe.E,
        p=2.0,
        sampled_continua=probe.sampled_continua,
    )
    with pytest.raises(GeometryError):
        probe_strong_accessibility(bad, g)
    none = AccessibilityProbe(
        x0=probe.x0,
        U=probe.U,
        V=probe.V,
        E=probe.E,
        p=2.0,
        sampled_continua=[],
    )
    with pytest.raises(GeometryError):
        probe_strong_accessibility(none, g)
    # a disconnected continuum is rejected
    torn = probe.sampled_continua[0].copy()
    torn[31:34, 31:34] = True  # far island near the disk center
    broken = AccessibilityProbe(
        x0=probe.x0,
        U=probe.U,
        V=probe.V,
        E=probe.E,
        p=2.0,
        sampled_continua=[torn],
    )
    with pytest.raises(GeometryError):
        probe_strong_accessibility(broken, g)


def test_estimate_cluster_set_identity_singleton():
    g = GridDomain.box(
        2, (-2.2, -2.2), (128, 128), 4.4 / 128, Annulus((0.0, 0.0), 0.5, 2.0)
    )
    b = (2.0 * np.cos(0.3), 2.0 * np.sin(0.3))
    est = estimate_cluster_set(Identity(), b, sequences=5, depth=10, grid=g)
    assert est.diameter < 3 * g.h
    got = np.asarray(est.points[0])
    assert np.linalg.norm(got - np.asarray(b)) < 3 * g.h


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
