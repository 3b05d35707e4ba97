"""Mapping families, jacobians, distortion coefficients, pullbacks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import qcap.grid
import qcap.mappings

from qcap import (
    Affine,
    Annulus,
    Ball,
    Condenser,
    DegenerateError,
    DomainError,
    GridDomain,
    Identity,
    JacobianData,
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
    cells = g.inside_centers_in(())
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


def whole_array_coefficient(m, g, p, q):
    """K_{p,q} by one pass over ``g.inside_centers_in(())``: the oracle for the slab walk."""
    jd = m.jacobian(g.inside_centers_in(()), g.n)
    op = np.asarray(jd.op_norm, dtype=float)
    det = np.abs(np.asarray(jd.jac_det, dtype=float))
    flagged = jd.degenerate
    zero = (det < qcap.mappings.J_MIN) & ~flagged
    n_flagged = int(flagged.sum())
    if n_flagged > 0.01 * g.inside_count:
        raise DegenerateError(f"{n_flagged} of {g.inside_count} cells have degenerate Jacobian")
    valid = ~flagged & ~zero
    quotient = op[valid] ** p / det[valid]
    if q == p:
        value = float(np.max(quotient) ** (1.0 / p)) if quotient.size else 0.0
        return value, None, "ess_sup", n_flagged
    integral = float(np.sum(quotient ** (q / (p - q))) * g.h**g.n)
    return integral ** ((p - q) / (p * q)), integral, "integral", n_flagged


KCOEF_GRID = (2, (-2.0, -2.0), (1024, 1024), 4.0 / 1024, Annulus((0.0, 0.0), 0.5, 1.9))
SLAB_GRIDS = {
    # 218 rows per slab: three whole slabs and a part
    "2d-701x300": (2, (-2.0, -1.0), (701, 300), 4.0 / 701, None),
    "2d-1024-annulus": KCOEF_GRID,
    "3d-70-ball": (3, (-1.5,) * 3, (70,) * 3, 3.0 / 70, Ball((0.1, -0.2, 0.05), 1.4)),
}
SLAB_MAPPINGS = {
    "radial-0.7-off-centre": lambda n: RadialPower(0.7, (0.013, -0.021, 0.007)[:n]),
    "radial-2": lambda n: RadialPower(2.0, (0.0,) * n),
    "affine": lambda n: Affine(tuple(map(tuple, (np.eye(n) + 0.3 * np.eye(n, k=1)).tolist())), (0.5,) * n),
}


# q/(p-q) = 29 spreads the integrand over many magnitudes, so a sum taken
# per slab, or in another order, reads differently in the last bits
@pytest.mark.parametrize("pq", [(2.0, 2.0), (3.0, 2.0), (3.0, 2.9)], ids=["ess-sup", "integral", "integral-steep"])
@pytest.mark.parametrize("mapping", list(SLAB_MAPPINGS))
@pytest.mark.parametrize("grid", list(SLAB_GRIDS))
def test_slab_walk_matches_the_whole_array_formula(grid, mapping, pq):
    g = GridDomain.box(*SLAB_GRIDS[grid])
    m = SLAB_MAPPINGS[mapping](g.n)
    k = distortion_coefficient(m, g, *pq)
    assert (k.value, k.integrand_integral, k.mode, k.flagged_cells) == whole_array_coefficient(m, g, *pq)


def test_slab_walk_one_row_per_slab(monkeypatch):
    # a slab smaller than a row still takes whole rows, one at a time
    monkeypatch.setattr(qcap.grid, "SLAB_CELLS", 100)
    g = GridDomain.box(2, (-1.0, -1.0), (37, 130), 2.0 / 37, Annulus((0.0, 0.0), 0.2, 0.9))
    m = RadialPower(0.7, (0.013, -0.021))
    for pq in ((2.0, 2.0), (3.0, 1.5)):
        k = distortion_coefficient(m, g, *pq)
        assert (k.value, k.integrand_integral, k.mode, k.flagged_cells) == whole_array_coefficient(m, g, *pq)


def test_slab_walk_counts_flagged_cells_over_slabs():
    # x -> x|x|^7 flags the cells with 0.014 < r < 0.12: rows 451-572, two
    # slabs of 64 rows; the error reports the count the whole array gives
    g = GridDomain.box(2, (-1.0, -1.0), (1024, 1024), 2.0 / 1024)
    m = RadialPower(8.0, (0.0, 0.0))
    with pytest.raises(DegenerateError) as want:
        whole_array_coefficient(m, g, 3.0, 2.0)
    with pytest.raises(DegenerateError) as got:
        distortion_coefficient(m, g, 3.0, 2.0)
    assert str(got.value) == str(want.value)


class CellJacobian:
    """|Dphi| = ``op`` and J = ``det`` at every center, but |Dphi| = NaN on the centers with x = ``nan_x``."""

    def __init__(self, op, det, nan_x=-1.0):
        self.op, self.det, self.nan_x = op, det, nan_x

    def jacobian(self, pts, n):
        op = np.where(pts[..., 0] == self.nan_x, np.nan, self.op)
        return JacobianData(op, np.full(op.shape, self.det))


@pytest.mark.parametrize(
    "m, want",
    [(CellJacobian(1.0, 2.0, 9.25), math.nan), (CellJacobian(1.0, 2.0), 0.5**0.5), (CellJacobian(0.0, 0.0), 0.0)],
    ids=["nan-in-a-late-slab", "finite", "no-valid-cell"],
)
def test_slab_maxima_keep_a_nan_and_an_empty_walk(monkeypatch, m, want):
    # ess sup over slabs of 4 rows (x = 9.25 is row 18, in the fifth): a NaN
    # quotient gives a NaN K, as one pass does, and no valid cell gives 0.0
    monkeypatch.setattr(qcap.grid, "SLAB_CELLS", 40)
    g = GridDomain.box(2, (0.0, 0.0), (23, 10), 0.5)
    k = distortion_coefficient(m, g, 2.0, 2.0)
    assert k.value == want or math.isnan(k.value) and math.isnan(want)
    assert (k.integrand_integral, k.mode, k.flagged_cells) == (None, "ess_sup", 0)


def test_slab_walk_rejects_a_center_on_a_cell_center():
    g = GridDomain.box(2, (-1.0, -1.0), (16, 16), 0.125)
    with pytest.raises(DomainError, match="center"):
        distortion_coefficient(RadialPower(0.7, (0.0625, 0.0625)), g, 2.0, 2.0)


def test_distortion_coefficient_memory():
    # tracemalloc peak on the lab-cli kcoef grid: 4.65 MB, 10.2 MB with one
    # quotient per inside cell, 40.8 MB with the whole-array pass (its
    # center array, Jacobians and masked copies)
    g = GridDomain.box(*KCOEF_GRID)
    g.inside_count
    tracemalloc.start()
    try:
        k = distortion_coefficient(RadialPower(2.0, (0.0, 0.0)), g, 2.0, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k.value == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert peak < 5.8e6


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
