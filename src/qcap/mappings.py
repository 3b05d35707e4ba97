"""Mapping families with closed-form derivatives, inverses, and the weak
(p,q)-distortion coefficient.

Three families are built in, each a homeomorphism onto its image with
closed-form Jacobian data, so every numeric result has an analytic oracle:

  * Identity
  * Affine x -> Ax + b with A nonsingular
  * RadialPower: x -> c + (x-c) |x-c|^(alpha-1), alpha > 0, fixing rays
    through the center c and sending radius r to r^alpha

The distortion coefficient of a mapping phi over a domain Omega is

    K_{p,q}^{pq/(p-q)} = integral of (|Dphi|^p / |J|)^{q/(p-q)}   (q < p)
    K_{p,p}^p          = ess sup of |Dphi|^p / |J|                (q = p)

with |Dphi| the operator norm and J the Jacobian determinant.  Cells where
|J| vanishes contribute nothing if |Dphi| vanishes there too (the
finite-distortion convention 0/0 = 0); otherwise they are flagged, excluded,
and counted, and too many flagged cells fail the computation.  The cells
are walked in slabs of whole rows along axis 0, so the computation holds
one float per inside cell plus one slab's centers and Jacobian data, never
the grid's whole center array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateError, DomainError, GeometryError
from .exponents import ExponentPair
from .grid import Condenser, GridDomain, Region, radius, rasterize, row_slabs

J_MIN = 1e-12  # below this |J| a cell counts as degenerate, not just small


@dataclass
class JacobianData:
    """Pointwise operator norm |Dphi| and determinant J, with degeneracy flags."""

    op_norm: np.ndarray
    jac_det: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Cells where J ~ 0 but |Dphi| does not vanish (distortion undefined)."""
        return (np.abs(self.jac_det) < J_MIN) & (self.op_norm >= J_MIN)


@dataclass
class DistortionCoefficient:
    """K_{p,q} value; ``integrand_integral`` holds the pq/(p-q)-power integral
    in integral mode and None in ess-sup mode."""

    value: float
    integrand_integral: float | None
    mode: str  # "integral" (q < p) or "ess_sup" (q = p)
    flagged_cells: int = 0


@dataclass(frozen=True)
class Identity:
    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float)

    def jacobian(self, pts: np.ndarray, n: int) -> JacobianData:
        shape = np.shape(pts)[:-1]
        return JacobianData(np.ones(shape), np.ones(shape))

    def inverse(self) -> "Identity":
        return self


@dataclass(frozen=True)
class Affine:
    """x -> Ax + b with A nonsingular."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 3):
            raise DomainError("affine matrix must be square, 2x2 or 3x3")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (a.shape[0],):
            raise DomainError("affine shift length must match the matrix")
        if abs(np.linalg.det(a)) < J_MIN:
            raise DomainError("affine matrix must be nonsingular")
        object.__setattr__(self, "a", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "b", tuple(b.tolist()))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    @property
    def shift(self) -> np.ndarray:
        return np.asarray(self.b, dtype=float)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float) @ self.matrix.T + self.shift

    def jacobian(self, pts: np.ndarray, n: int) -> JacobianData:
        m = self.matrix
        if m.shape != (n, n):
            raise DomainError(f"affine map is {m.shape[0]}-dimensional, requested n={n}")
        op = float(np.linalg.norm(m, 2))
        det = float(np.linalg.det(m))
        shape = np.shape(pts)[:-1]
        return JacobianData(np.full(shape, op), np.full(shape, det))

    def inverse(self) -> "Affine":
        inv = np.linalg.inv(self.matrix)
        return Affine(tuple(map(tuple, inv.tolist())), tuple((-inv @ self.shift).tolist()))


@dataclass(frozen=True)
class RadialPower:
    """x -> center + (x - center) |x - center|^(alpha - 1).

    Radial stretch alpha * r^(alpha-1), tangential stretch r^(alpha-1), so
    op_norm = max(alpha, 1) * r^(alpha-1) and J = alpha * r^(n(alpha-1)).
    For alpha < 1 the map (and its derivative) blows up at the center, which
    is excluded from the domain.
    """

    alpha: float
    center: tuple

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"radial power exponent must be positive, got {self.alpha}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _radii(self, pts: np.ndarray) -> np.ndarray:
        r = radius(pts, self.center)
        if self.alpha < 1 and np.any(r == 0):
            raise DomainError("radial power with alpha < 1 is undefined at its center")
        return r

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        r = self._radii(pts)
        rel = np.asarray(pts, dtype=float) - np.asarray(self.center)
        return np.asarray(self.center) + rel * (r ** (self.alpha - 1.0))[..., None]

    def jacobian(self, pts: np.ndarray, n: int) -> JacobianData:
        r = self._radii(pts)
        stretch = r ** (self.alpha - 1.0)
        return JacobianData(max(self.alpha, 1.0) * stretch, self.alpha * r ** (n * (self.alpha - 1.0)))

    def inverse(self) -> "RadialPower":
        return RadialPower(1.0 / self.alpha, self.center)


@dataclass(frozen=True)
class MappedRegion(Region):
    """Preimage region {x : region contains mapping(x)}: exact predicate
    transport, no inversion needed.

    The one region that needs whole points: its kernel stacks the per-axis
    coordinates into points, and ``contains`` maps its points as they are.
    """

    region: object
    mapping: object

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.region.contains(self.mapping.evaluate(pts))

    def contains_axes(self, xs) -> np.ndarray:
        return self.contains(np.stack(np.broadcast_arrays(*xs), axis=-1))


def distortion_coefficient(m, dom: GridDomain, p: float, q: float) -> DistortionCoefficient:
    """K_{p,q}(m; dom) by midpoint quadrature (q < p) or cell-center maximum (q = p).

    The inside cells are walked in the slabs of whole rows along axis 0
    that rasterization uses (``grid.row_slabs``, about ``SLAB_CELLS``
    cells each).  Each slab's centers go through ``m.jacobian``.  For
    q = p each slab keeps the max of the quotients |Dphi|^p / |J| of its
    valid cells; for q < p they fill the next part of one array of
    ``inside_count`` floats, summed once over the filled part.
    So the result is that of a single pass over every inside center
    (``dom.inside_centers_in(())``), bit for bit, in the memory of one slab
    (plus one float per cell for q < p).

    Raises DegenerateError when flagged cells (|J| ~ 0 with |Dphi| > 0)
    exceed 1% of the domain volume.
    """
    ExponentPair(dom.n, p, q)  # DomainError unless 1 < q <= p
    maxima = []
    quotient = None if q == p else np.empty(dom.inside_count)
    filled = n_flagged = 0
    for slab in row_slabs(dom.cells):
        jd = m.jacobian(dom.inside_centers_in((slab,)), dom.n)
        op = np.asarray(jd.op_norm, dtype=float)
        det = np.abs(np.asarray(jd.jac_det, dtype=float))
        n_flagged += int(np.count_nonzero(jd.degenerate))
        valid = ~(det < J_MIN)  # flagged and 0/0 cells both have |J| < J_MIN
        part = op[valid] ** p / det[valid]
        if quotient is None:
            if part.size:
                maxima.append(np.max(part))
        else:
            quotient[filled : filled + part.size] = part
            filled += part.size
    if n_flagged > 0.01 * dom.inside_count:
        raise DegenerateError(
            f"{n_flagged} of {dom.inside_count} cells have degenerate Jacobian"
        )
    if quotient is None:
        # np.max, not max: a NaN quotient gives a NaN K, as one pass over every cell does
        value = float(np.max(maxima) ** (1.0 / p)) if maxima else 0.0
        return DistortionCoefficient(value, None, "ess_sup", n_flagged)
    integral = float(np.sum(quotient[:filled] ** (q / (p - q))) * dom.h**dom.n)
    return DistortionCoefficient(integral ** ((p - q) / (p * q)), integral, "integral", n_flagged)


def pullback_condenser(m, c_image: Condenser, source_grid: GridDomain) -> Condenser:
    """Rasterize the plate preimages {x : m(x) in plate} on the source grid.

    Uses the analytic plate regions when the image condenser records them;
    otherwise falls back to membership of the forward-mapped cell centers in
    the image cell sets.  On that fallback a source cell whose image center
    leaves the image grid belongs to no plate, so the image grid must cover
    the image of every source cell that should land in a plate.
    """
    plates = []
    regions = []
    for cells, region in ((c_image.E, c_image.region_e), (c_image.F, c_image.region_f)):
        if region is not None:
            pre = MappedRegion(region, m)
            plates.append(rasterize(pre, source_grid))
            regions.append(pre)
        else:
            img = m.evaluate(source_grid.all_centers())
            idx, valid = c_image.domain.locate(img)
            hit = np.zeros(source_grid.cells, dtype=bool)
            sel = tuple(np.moveaxis(idx, -1, 0))
            hit[valid] = cells[sel][valid]
            plates.append(hit & source_grid.mask)
            regions.append(None)
    if not plates[0].any() or not plates[1].any():
        raise GeometryError("a pulled-back plate rasterizes empty on the source grid")
    return Condenser(plates[0], plates[1], source_grid, regions[0], regions[1])
