"""Discretized domains, region predicates, and condensers.

A ``GridDomain`` is a uniform cell grid over an axis-aligned box in R^2 or
R^3 together with an inside/outside mask whose inside cells form one
face-connected component.  Cell sets (plates, continua, rasterized regions)
are boolean arrays of the grid's shape.  Rasterization uses the cell-center
membership rule: a cell belongs to a region iff its center satisfies the
region predicate.

Region predicates take point arrays of shape (..., n) and work one
coordinate axis at a time, with no reduction over the short trailing axis:
every distance goes through ``radius``, which is bit for bit
``np.linalg.norm(pts - center, axis=-1)``, a box ANDs its per-axis bounds,
and cell centers are filled axis by axis from broadcast views.

A condenser's domain embeds its plates: a face between a free cell and a
plate cell is cut by the plate's boundary at the fraction theta in (0, 1]
of the center-to-center segment that lies outside the plate, and the energy
weights that face by 1/theta (Shortley & Weller 1938, in the symmetric form
of Gibou, Fedkiw, Cheng & Kang, J. Comput. Phys. 176, 2002).  theta comes
from bisection on the plate's recorded region predicate; a plate without
one keeps theta = 1, the cell-center staircase.

Cells are face-adjacent (4 neighbors in 2D, 6 in 3D), the stencil of the
energy.  The face list is built once per grid, in ``GridDomain.face_pairs``;
the energy sums over it and ``graph_distance`` searches it as a graph.
``connected`` labels components with the same face structuring element.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy import ndimage
from scipy.sparse.csgraph import dijkstra

from .exceptions import DomainError, EmptySetError, GeometryError

# Bisection steps locating a plate boundary on a cut face, and the smallest
# theta kept (a boundary closer to a free center is placed at this fraction,
# which bounds the face weight at 1e6).
CUT_BISECTIONS = 40
THETA_MIN = 1e-6


def _shift_slices(ndim: int, axis: int) -> tuple[tuple, tuple]:
    lo = tuple(slice(None, -1) if k == axis else slice(None) for k in range(ndim))
    hi = tuple(slice(1, None) if k == axis else slice(None) for k in range(ndim))
    return lo, hi


def dilate_faces(cells: np.ndarray) -> np.ndarray:
    """Grow a cell set by one layer of face-neighbors (the set itself included)."""
    out = cells.copy()
    for axis in range(cells.ndim):
        lo, hi = _shift_slices(cells.ndim, axis)
        out[lo] |= cells[hi]
        out[hi] |= cells[lo]
    return out


def connected(cells: np.ndarray) -> bool:
    """True iff the cell set is empty or forms one face-connected component."""
    _, count = ndimage.label(cells, ndimage.generate_binary_structure(cells.ndim, 1))
    return count <= 1


def graph_distance(grid: GridDomain, sources: np.ndarray) -> np.ndarray:
    """Face-hop count (int32) from the inside cells in ``sources`` to every inside cell.

    One multi-source search of the graph ``grid.face_pairs``; the result is
    in inside enumeration.  The inside cells form one component, so every
    count is finite once ``sources`` holds an inside cell.
    """
    # csgraph searches int32 indices; it would copy a graph built on int64 ones
    a, b = (x.astype(np.int32) for x in grid.face_pairs)
    m = grid.inside_count
    faces = sp.csr_array((np.ones(a.size), (a, b)), shape=(m, m))
    starts = np.flatnonzero(sources[grid.mask])
    hops = dijkstra(faces, directed=False, indices=starts, unweighted=True, min_only=True)
    return hops.astype(np.int32)


# ---------------------------------------------------------------------------
# Region predicates
# ---------------------------------------------------------------------------


def radius(pts, center) -> np.ndarray:
    """Euclidean distance from ``center`` over the last axis of ``pts``.

    One coordinate at a time, in place: the squares accumulate in axis
    order into the first one, which is what ``np.linalg.norm(pts - center,
    axis=-1)`` sums over a short axis, so the result is that norm bit for
    bit without its slow reduction.  ``center`` is a point or any array
    that broadcasts against ``pts``; a single point gives a scalar.
    DomainError when the two differ in dimension.
    """
    pts = np.asarray(pts, dtype=float)
    c = np.asarray(center, dtype=float)
    if pts.shape[-1:] != c.shape[-1:]:
        raise DomainError(f"points of shape {pts.shape} against a center of shape {c.shape}")
    out = np.asarray(pts[..., 0] - c[..., 0])
    out *= out
    for k in range(1, pts.shape[-1]):
        x = pts[..., k] - c[..., k]
        x *= x
        out += x
    np.sqrt(out, out=out)
    return out if out.ndim else out[()]


def _as_point(x, n: int) -> np.ndarray:
    pt = np.asarray(x, dtype=float)
    if pt.shape != (n,):
        raise DomainError(f"expected a point of dimension {n}, got shape {pt.shape}")
    return pt


def directions(n: int, count: int, phase: float = 0.0) -> np.ndarray:
    """``count`` unit vectors spread over the sphere, turned by ``phase`` about the last axis.

    Equispaced angles 2 pi i / count + phase in 2D; in 3D a Fibonacci sphere,
    heights 1 - (2i + 1) / count at azimuths i times the golden angle plus phase.
    """
    i = np.arange(count)
    if n == 2:
        theta = 2 * math.pi * i / count + phase
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    z = 1.0 - (2 * i + 1.0) / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    azimuth = i * (math.pi * (3.0 - math.sqrt(5.0))) + phase
    return np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=1)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball around ``center``; open by default, closed if requested."""

    center: tuple[float, ...]
    r: float
    closed: bool = False

    def __post_init__(self):
        if self.r < 0:
            raise DomainError(f"ball radius must be >= 0, got {self.r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = radius(pts, self.center)
        return d <= self.r if self.closed else d < self.r


@dataclass(frozen=True)
class SphereShell:
    """Band of width ``thickness`` around the sphere of radius ``r``."""

    center: tuple[float, ...]
    r: float
    thickness: float

    def __post_init__(self):
        if self.r < 0 or self.thickness < 0:
            raise DomainError("sphere shell requires r >= 0 and thickness >= 0")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = radius(pts, self.center)
        return np.abs(d - self.r) <= 0.5 * self.thickness


@dataclass(frozen=True)
class Annulus:
    """Open annulus r1 < |x - center| < r2."""

    center: tuple[float, ...]
    r1: float
    r2: float

    def __post_init__(self):
        if not (0 <= self.r1 < self.r2):
            raise DomainError(f"annulus requires 0 <= r1 < r2, got r1={self.r1}, r2={self.r2}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = radius(pts, self.center)
        return (d > self.r1) & (d < self.r2)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box lo <= x <= hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(c) for c in self.lo))
        object.__setattr__(self, "hi", tuple(float(c) for c in self.hi))
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise DomainError("box requires lo <= hi componentwise")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts)
        if pts.shape[-1:] != (len(self.lo),):
            raise DomainError(f"points of shape {pts.shape} in a box of dimension {len(self.lo)}")
        out = (pts[..., 0] >= self.lo[0]) & (pts[..., 0] <= self.hi[0])
        for k in range(1, len(self.lo)):
            out &= (pts[..., k] >= self.lo[k]) & (pts[..., k] <= self.hi[k])
        return out


@dataclass(frozen=True)
class Complement:
    region: object

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return ~self.region.contains(pts)


@dataclass(frozen=True)
class Union:
    regions: tuple

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[:-1], dtype=bool)
        for r in self.regions:
            out |= r.contains(pts)
        return out


@dataclass(frozen=True)
class Intersection:
    regions: tuple

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        out = np.ones(pts.shape[:-1], dtype=bool)
        for r in self.regions:
            out &= r.contains(pts)
        return out


# ---------------------------------------------------------------------------
# Grid domain
# ---------------------------------------------------------------------------


def _cell_centers(origin, cells, h: float, where=None) -> np.ndarray:
    """Centers of the cells of the grid with that origin, cells and h.

    All of them, shape (*cells, n), or those of the boolean cell array
    ``where`` in row-major order, shape (count, n).  Each coordinate is
    filled from a broadcast view of its axis, without a meshgrid.
    """
    n = len(cells)
    out = np.empty((*cells, n) if where is None else (int(np.count_nonzero(where)), n))
    for k, (o, c) in enumerate(zip(origin, cells)):
        axis = (float(o) + (np.arange(c) + 0.5) * h).reshape([c if j == k else 1 for j in range(n)])
        out[..., k] = axis if where is None else np.broadcast_to(axis, cells)[where]
    return out


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid over an axis-aligned box with an inside mask.

    ``cells[k]`` cells of size ``h`` along axis k, so the box extent is
    ``cells[k] * h`` per axis.  Cell (i, j, ...) has center
    ``origin + (i + 1/2, j + 1/2, ...) * h``.  The inside cells must form a
    single face-connected component.

    ``plates`` holds (cells, region) pairs of embedded condenser plates,
    empty for a bare grid; ``Condenser`` sets it through ``with_plates``.
    """

    n: int
    origin: tuple[float, ...]
    cells: tuple[int, ...]
    h: float
    mask: np.ndarray = field(repr=False)
    plates: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise DomainError(f"only dimensions 2 and 3 are supported, got n={self.n}")
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if not 0 < self.h < math.inf or not all(map(math.isfinite, self.origin)):
            raise DomainError(f"need a finite h > 0 and a finite origin, got h={self.h}, origin={self.origin}")
        if len(self.origin) != self.n or len(self.cells) != self.n:
            raise DomainError("origin and cells must have length n")
        if any(c < 1 for c in self.cells):
            raise DomainError("need at least one cell per axis")
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        if mask.shape != self.cells:
            raise DomainError(f"mask shape {mask.shape} does not match cells {self.cells}")
        if not mask.any():
            raise GeometryError("domain mask has no inside cells")
        if not connected(mask):
            raise GeometryError("inside region is not face-connected")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def box(cls, n: int, origin, cells, h: float, region=None) -> "GridDomain":
        """Full box domain, optionally masked to ``region`` (cell-center rule)."""
        cells = tuple(int(c) for c in cells)
        if region is None:
            mask = np.ones(cells, dtype=bool)
        else:
            mask = region.contains(_cell_centers(origin, cells, h))
        return cls(n, tuple(origin), cells, h, mask)

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(c * self.h for c in self.cells)

    @property
    def inside_count(self) -> int:
        return int(self.mask.sum())

    def axis_centers(self, k: int) -> np.ndarray:
        return self.origin[k] + (np.arange(self.cells[k]) + 0.5) * self.h

    def all_centers(self) -> np.ndarray:
        """Centers of all cells, shape (*cells, n)."""
        return _cell_centers(self.origin, self.cells, self.h)

    @cached_property
    def inside_index(self) -> np.ndarray:
        """Full-grid map from cell to inside enumeration; -1 outside."""
        idx = np.full(self.cells, -1, dtype=np.int64)
        idx[self.mask] = np.arange(self.inside_count)
        idx.setflags(write=False)
        return idx

    @cached_property
    def inside_centers(self) -> np.ndarray:
        """Centers of inside cells in enumeration order, shape (inside_count, n)."""
        pts = _cell_centers(self.origin, self.cells, self.h, self.mask)
        pts.setflags(write=False)
        return pts

    @cached_property
    def face_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Inside-enumeration indices (a, b) of all face-adjacent inside pairs.

        Faces are listed axis by axis in row-major order, so the order (and
        with it every reduction over faces) is deterministic.
        """
        parts = []
        for axis in range(self.n):
            lo, hi = _shift_slices(self.n, axis)
            both = self.mask[lo] & self.mask[hi]
            parts.append((self.inside_index[lo][both], self.inside_index[hi][both]))
        a, b = (np.concatenate(side) for side in zip(*parts))
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

    def with_plates(self, plates) -> "GridDomain":
        """The same grid with the (cells, region) pairs ``plates`` embedded.

        A shallow copy: cached index arrays are shared, the cut faces are
        recomputed for the new plates on first use.
        """
        out = copy.copy(self)
        object.__setattr__(out, "plates", tuple(plates))
        out.__dict__.pop("cut_faces", None)
        return out

    @cached_property
    def cut_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Faces cut by an embedded plate boundary, with their weights 1/theta.

        Returns (faces, weights): positions in ``face_pairs`` of the faces
        between a free cell and a plate cell whose theta is below 1, and
        1/theta for each.  theta is the fraction of the segment from the
        free cell's center to the plate cell's center that lies outside the
        plate region.  It is 1 when the plate records no region or the
        region does not separate the two centers.
        """
        a, b = self.face_pairs
        inside_flat = np.flatnonzero(self.mask)

        def centers(idx):
            ijk = np.unravel_index(inside_flat[idx], self.cells)
            return np.asarray(self.origin) + (np.stack(ijk, axis=-1) + 0.5) * self.h

        owner = np.full(self.inside_count, -1, dtype=np.int8)
        for k, (cells, _) in enumerate(self.plates):
            owner[self.inside_index[cells]] = k
        faces = np.flatnonzero((owner[a] < 0) != (owner[b] < 0))
        a_plate = owner[a[faces]] >= 0
        free_end = np.where(a_plate, b[faces], a[faces])
        plate_end = np.where(a_plate, a[faces], b[faces])
        which = owner[plate_end]
        weights = np.ones(faces.size)
        for k, (_, region) in enumerate(self.plates):
            sel = np.flatnonzero(which == k)
            if region is not None and sel.size:
                theta = _cut_fraction(region, centers(free_end[sel]), centers(plate_end[sel]))
                weights[sel] = 1.0 / theta
        keep = weights != 1.0
        faces = faces[keep]
        weights = weights[keep]
        faces.setflags(write=False)
        weights.setflags(write=False)
        return faces, weights

    def locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map points to cell multi-indices.

        Returns (indices, valid): ``indices`` has shape (..., n) clipped to the
        grid; ``valid`` flags points that fall within the grid box.
        """
        rel = (np.asarray(pts, dtype=float) - np.asarray(self.origin)) / self.h
        raw = np.floor(rel).astype(np.int64)
        valid = (raw[..., 0] >= 0) & (raw[..., 0] < self.cells[0])
        for k in range(1, self.n):
            valid &= (raw[..., k] >= 0) & (raw[..., k] < self.cells[k])
        return np.clip(raw, 0, np.asarray(self.cells) - 1), valid

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """True where a point lies in an inside cell of the grid."""
        idx, valid = self.locate(pts)
        out = np.zeros(np.shape(valid), dtype=bool)
        inside = self.mask[tuple(np.moveaxis(idx, -1, 0))]
        np.copyto(out, valid & inside)
        return out


def rasterize(region, grid: GridDomain) -> np.ndarray:
    """Cell set of inside cells whose centers satisfy the region predicate."""
    return region.contains(grid.all_centers()) & grid.mask


def _cut_fraction(region, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Fraction theta in (0, 1] of each segment start -> stop before it enters ``region``.

    Bisection on the predicate; theta = 1 where ``start`` is not outside or
    ``stop`` not inside the region.
    """
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


# ---------------------------------------------------------------------------
# Condensers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condenser:
    """Pair of disjoint, connected, nonempty plates inside a grid domain.

    ``region_e``/``region_f`` optionally record the analytic regions the
    plates were rasterized from; mapped-plate constructions use them when
    available, and the energy places the plate boundaries on the faces they
    cut.  ``domain`` is the given grid with both plates embedded
    (``GridDomain.with_plates``), so ``energy_value(u, cond.domain, params)``
    is the condenser's discrete energy.
    """

    E: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    domain: GridDomain
    region_e: object = None
    region_f: object = None

    def __post_init__(self):
        E = np.ascontiguousarray(self.E, dtype=bool)
        F = np.ascontiguousarray(self.F, dtype=bool)
        if E.shape != self.domain.cells or F.shape != self.domain.cells:
            raise GeometryError("plate shape does not match the grid")
        if not E.any() or not F.any():
            raise GeometryError("both plates must be nonempty")
        if (E & F).any():
            raise GeometryError("plates must be disjoint")
        if (E & ~self.domain.mask).any() or (F & ~self.domain.mask).any():
            raise GeometryError("plates must consist of inside cells")
        if not connected(E) or not connected(F):
            raise GeometryError("each plate must be face-connected")
        E.setflags(write=False)
        F.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "F", F)
        plates = ((E, self.region_e), (F, self.region_f))
        object.__setattr__(self, "domain", self.domain.with_plates(plates))

    @cached_property
    def e_indices(self) -> np.ndarray:
        return self.domain.inside_index[self.E]

    @cached_property
    def f_indices(self) -> np.ndarray:
        return self.domain.inside_index[self.F]

    def swapped(self) -> "Condenser":
        return Condenser(self.F, self.E, self.domain, self.region_f, self.region_e)


def check_ring_radii(r1: float, r2: float) -> None:
    """DomainError unless 0 < r1 < r2: the radii of every ring (condenser, closed form, benchmark)."""
    if not (0 < r1 < r2):
        raise DomainError(f"ring radii must satisfy 0 < r1 < r2, got r1={r1}, r2={r2}")


def make_ring_condenser(x0, r1: float, r2: float, grid: GridDomain) -> Condenser:
    """Ring condenser: E the closed ball of radius r1, F everything at
    distance >= r2, both around x0 and clipped to the inside cells.

    Raises DomainError unless 0 < r1 < r2, and GeometryError when the closed
    ball of radius r2 does not fit in the grid box, when a plate rasterizes
    empty, or when the plates touch (gap below the resolution h).
    """
    x0 = _as_point(x0, grid.n)
    check_ring_radii(r1, r2)
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.extent)
    if np.any(x0 - r2 < lo) or np.any(x0 + r2 > hi):
        raise GeometryError("closed ball of radius r2 must fit inside the grid box")
    region_e = Ball(tuple(x0), r1, closed=True)
    region_f = Complement(Ball(tuple(x0), r2))
    E = rasterize(region_e, grid)
    F = rasterize(region_f, grid)
    if not E.any() or not F.any():
        raise GeometryError("a ring plate rasterized empty; the grid is too coarse")
    if (dilate_faces(E) & F).any():
        raise GeometryError("ring plates merge at this resolution; refine the grid")
    return Condenser(E, F, grid, region_e, region_f)


def point_diameter(pts: np.ndarray) -> float:
    """Largest Euclidean distance between two rows of ``pts`` (EmptySetError for none).

    The farthest pair are vertices of the convex hull, so beyond n + 1 points
    the scan keeps only the vertices of ``ConvexHull(pts, qhull_options="QJ")``;
    the joggle lets flat sets (lines, slabs) through, and distances are taken
    between the original points.  The pairs are then scanned in chunks of
    2048 rows.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if len(pts) == 0:
        raise EmptySetError("diameter of an empty point set")
    if len(pts) > pts.shape[1] + 1:
        from scipy.spatial import ConvexHull

        pts = pts[ConvexHull(pts, qhull_options="QJ").vertices]
    best = 0.0
    step = 2048
    for i in range(0, len(pts), step):
        best = max(best, float(radius(pts[i : i + step, None, :], pts).max()))
    return best


def diameter(cells: np.ndarray, grid: GridDomain) -> float:
    """Largest distance between two cell centers of a cell set (``point_diameter``)."""
    return point_diameter(_cell_centers(grid.origin, grid.cells, grid.h, cells.astype(bool)))
