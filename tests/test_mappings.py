"""Mapping families, jacobians, distortion coefficients, pullbacks."""

import numpy as np
import pytest
from scipy import ndimage

from qcap import (
    Affine,
    Annulus,
    Ball,
    Condenser,
    DegenerateError,
    DomainError,
    GridDomain,
    Identity,
    MappedRegion,
    RadialPower,
    distortion_coefficient,
    make_ring_condenser,
    pullback_condenser,
)


def fd_jacobian(m, x, step=1e-7):
    """Numerical Jacobian matrix of a mapping at a single point."""
    x = np.asarray(x, dtype=float)
    n = x.size
    cols = []
    for k in range(n):
        up = x.copy()
        dn = x.copy()
        up[k] += step
        dn[k] -= step
        cols.append((m.evaluate(up[None, :])[0] - m.evaluate(dn[None, :])[0]) / (2 * step))
    return np.stack(cols, axis=1)


def test_identity():
    pts = np.array([[0.3, -1.2], [2.0, 0.5]])
    np.testing.assert_array_equal(Identity().evaluate(pts), pts)
    jd = Identity().jacobian(pts, 2)
    np.testing.assert_array_equal(jd.op_norm, [1.0, 1.0])
    np.testing.assert_array_equal(jd.jac_det, [1.0, 1.0])
    assert isinstance(Identity().inverse(), Identity)


def test_affine_validation():
    with pytest.raises(DomainError):
        Affine(((1.0, 0.0),), (0.0,))
    with pytest.raises(DomainError):
        Affine(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        Affine(((1.0, 2.0), (2.0, 4.0)), (0.0, 0.0))  # singular
    with pytest.raises(DomainError):
        Affine(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)).jacobian(np.zeros((1, 2)), 3)


@pytest.mark.parametrize(
    "mat, shift",
    [
        (((2.0, 0.0), (0.0, 1.0)), (0.5, -1.0)),
        (((1.0, 2.0), (0.5, -1.0)), (0.0, 0.0)),
        (((2.0, 1.0, 0.0), (0.0, 1.5, 0.3), (0.2, 0.0, 0.9)), (1.0, 2.0, 3.0)),
    ],
)
def test_affine_jacobian_matches_svd(mat, shift):
    m = Affine(mat, shift)
    a = np.asarray(mat)
    pts = np.zeros((3, a.shape[0]))
    jd = m.jacobian(pts, a.shape[0])
    # independent oracle: largest singular value and determinant from numpy
    top_sv = np.linalg.svd(a, compute_uv=False)[0]
    np.testing.assert_allclose(jd.op_norm, top_sv, rtol=1e-12)
    np.testing.assert_allclose(jd.jac_det, np.linalg.det(a), rtol=1e-12)


def test_affine_evaluate_and_inverse():
    m = Affine(((1.0, 2.0), (0.5, -1.0)), (3.0, -2.0))
    pts = np.random.default_rng(0).normal(size=(20, 2))
    images = m.evaluate(pts)
    want = pts @ np.asarray(m.matrix).T + np.asarray(m.shift)
    np.testing.assert_allclose(images, want, rtol=1e-14)
    back = m.inverse().evaluate(images)
    np.testing.assert_allclose(back, pts, rtol=1e-11, atol=1e-12)


def test_radial_power_evaluate():
    m = RadialPower(2.0, (0.0, 0.0))
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    images = m.evaluate(pts)
    np.testing.assert_allclose(images[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(images[1], [0.0, 4.0], atol=1e-15)
    np.testing.assert_allclose(images[2], [15.0, 20.0], rtol=1e-14)
    # offset center
    m2 = RadialPower(3.0, (1.0, 1.0))
    np.testing.assert_allclose(m2.evaluate(np.array([[2.0, 1.0]]))[0], [2.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_radial_power_jacobian_matches_finite_differences(alpha, dim):
    m = RadialPower(alpha, tuple(0.1 * k for k in range(dim)))
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.4, 1.6, size=(6, dim)) * rng.choice([-1.0, 1.0], size=(6, dim))
    jd = m.jacobian(pts, dim)
    for i, x in enumerate(pts):
        d = fd_jacobian(m, x)
        np.testing.assert_allclose(jd.op_norm[i], np.linalg.svd(d, compute_uv=False)[0], rtol=1e-6)
        np.testing.assert_allclose(jd.jac_det[i], np.linalg.det(d), rtol=1e-6)


def test_radial_power_inverse_and_center_domain():
    m = RadialPower(2.0, (0.0, 0.0))
    mi = m.inverse()
    assert isinstance(mi, RadialPower) and mi.alpha == 0.5
    pts = np.random.default_rng(1).uniform(-2, 2, size=(30, 2))
    np.testing.assert_allclose(mi.evaluate(m.evaluate(pts)), pts, rtol=1e-12, atol=1e-12)
    with pytest.raises(DomainError):
        mi.evaluate(np.zeros((1, 2)))  # alpha < 1 undefined at its center
    # alpha >= 1 is fine at the center
    np.testing.assert_allclose(m.evaluate(np.zeros((1, 2))), 0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_power_jacobian_at_center(dim):
    center = tuple(0.25 * k for k in range(dim))
    pts = np.array([center, np.add(center, 1.0)])
    for alpha, at_center in ((2.0, 0.0), (1.0, 1.0)):
        m = RadialPower(alpha, center)
        jd = m.jacobian(pts, dim)
        assert jd.op_norm[0] == jd.jac_det[0] == at_center
        np.testing.assert_array_equal(m.evaluate(pts[:1]), pts[:1])
    with pytest.raises(DomainError):
        RadialPower(0.5, center).jacobian(pts, dim)


def test_mapped_region():
    # pullback of a ball under the radial square is the sqrt-radius ball
    region = MappedRegion(Ball((0.0, 0.0), 4.0), RadialPower(2.0, (0.0, 0.0)))
    pts = np.array([[1.9, 0.0], [2.1, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(region.contains(pts), [True, False, True])


def test_affine_scaling():
    m = Affine(((2.0, 0.0), (0.0, 2.0)), (0.0, 0.0))
    pts = np.ones((2, 2))
    np.testing.assert_allclose(m.evaluate(pts), 2 * pts)
    assert m.jacobian(pts, 2).jac_det[0] == pytest.approx(4.0)


def test_distortion_coefficient_ess_sup_affine():
    g = GridDomain.box(2, (-1.0, -1.0), (16, 16), 0.125)
    k = distortion_coefficient(Affine(((2.0, 0.0), (0.0, 1.0)), (0.0, 0.0)), g, 2.0, 2.0)
    assert k.mode == "ess_sup"
    assert k.flagged_cells == 0
    assert k.integrand_integral is None
    # sup over cells of (|D phi|^2 / J)^(1/2) = (4/2)^(1/2)
    assert k.value == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_distortion_coefficient_ess_sup_radial():
    g = GridDomain.box(2, (-1.5, -1.5), (32, 32), 3.0 / 32, Annulus((0.0, 0.0), 0.2, 1.4))
    k = distortion_coefficient(RadialPower(2.0, (0.0, 0.0)), g, 2.0, 2.0)
    # |D phi| = 2r, J = 2 r^2, quotient = 2 at every cell
    assert k.value == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_distortion_coefficient_integral_mode():
    g = GridDomain.box(2, (-1.0, -1.0), (20, 20), 0.1)
    p, q = 3.0, 2.0
    m = RadialPower(2.0, (0.0, 0.0))
    k = distortion_coefficient(m, g, p, q)
    assert k.mode == "integral"
    # independent route: numerical jacobians per cell, then the quadrature
    cells = g.inside_centers
    vals = []
    for x in cells:
        d = fd_jacobian(m, x)
        op = np.linalg.svd(d, compute_uv=False)[0]
        det = abs(np.linalg.det(d))
        vals.append((op**p / det) ** (q / (p - q)))
    integral = float(np.sum(vals) * g.h**g.n)
    assert k.integrand_integral == pytest.approx(integral, rel=1e-5)
    assert k.value == pytest.approx(integral ** ((p - q) / (p * q)), rel=1e-5)


def test_distortion_identity_integral_is_volume_power():
    g = GridDomain.box(2, (-1.0, -1.0), (16, 16), 0.125)
    p, q = 3.0, 1.5
    k = distortion_coefficient(Identity(), g, p, q)
    assert k.value == pytest.approx(4.0 ** ((p - q) / (p * q)), rel=1e-12)


def test_distortion_degenerate_cells():
    # steep radial powers collapse the jacobian near the center while the
    # operator norm stays positive; enough such cells aborts the quadrature
    g = GridDomain.box(2, (-1.0, -1.0), (32, 32), 0.0625)
    with pytest.raises(DegenerateError):
        distortion_coefficient(RadialPower(8.0, (0.0, 0.0)), g, 3.0, 2.0)
    # a milder power keeps every cell valid
    k = distortion_coefficient(RadialPower(3.0, (0.0, 0.0)), g, 3.0, 2.0)
    assert k.flagged_cells == 0


def test_exponent_validation():
    g = GridDomain.box(2, (-1.0, -1.0), (8, 8), 0.25)
    with pytest.raises(DomainError):
        distortion_coefficient(Identity(), g, 2.0, 2.5)
    with pytest.raises(DomainError):
        distortion_coefficient(Identity(), g, 2.0, 1.0)


def test_pullback_condenser_ring():
    image = GridDomain.box(2, (-4.5, -4.5), (128, 128), 9.0 / 128)
    source = GridDomain.box(2, (-2.5, -2.5), (128, 128), 5.0 / 128)
    c_image = make_ring_condenser((0.0, 0.0), 1.0, 4.0, image)
    pulled = pullback_condenser(RadialPower(2.0, (0.0, 0.0)), c_image, source)
    # the preimage of the (1, 4) ring under |x| x is the (1, 2) ring
    want = make_ring_condenser((0.0, 0.0), 1.0, 2.0, source)
    np.testing.assert_array_equal(pulled.E, want.E)
    np.testing.assert_array_equal(pulled.F, want.F)


def test_pullback_condenser_identity_roundtrip():
    image = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    c = make_ring_condenser((0.0, 0.0), 1.0, 2.0, image)
    pulled = pullback_condenser(Identity(), c, image)
    np.testing.assert_array_equal(pulled.E, c.E)
    np.testing.assert_array_equal(pulled.F, c.F)


def test_pullback_condenser_without_regions():
    # an image condenser that records no regions is pulled back cell by cell
    image = GridDomain.box(2, (-4.5, -4.5), (96, 96), 9.0 / 96)
    ring = make_ring_condenser((0.0, 0.0), 0.5, 1.9, image)
    bare = Condenser(ring.E, ring.F, image)
    same = pullback_condenser(Identity(), bare, image)
    np.testing.assert_array_equal(same.E, ring.E)
    np.testing.assert_array_equal(same.F, ring.F)
    assert same.region_e is None and same.region_f is None

    # away from the plate boundaries the cell path agrees with the region path
    m = RadialPower(2.0, (0.0, 0.0))
    source = GridDomain.box(2, (-1.45, -1.45), (64, 64), 2.9 / 64)
    exact = pullback_condenser(m, ring, source)
    cellwise = pullback_condenser(m, bare, source)
    for want, got in ((exact.E, cellwise.E), (exact.F, cellwise.F)):
        band = ndimage.binary_dilation(want) & ~ndimage.binary_erosion(want)
        diff = want ^ got
        assert not (diff & ~band).any()
        assert diff.sum() <= 0.05 * want.sum()

    # a source cell whose image leaves the image grid belongs to no plate
    wide = GridDomain.box(2, (-2.5, -2.5), (64, 64), 5.0 / 64)
    _, landed = image.locate(m.evaluate(wide.all_centers()))
    cellwise = pullback_condenser(m, bare, wide)
    assert not (cellwise.E | cellwise.F)[~landed].any()
    assert (pullback_condenser(m, ring, wide).F & ~landed).any()
