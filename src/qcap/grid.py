"""Discretized domains, region predicates, and condensers.

A ``GridDomain`` is a uniform cell grid over an axis-aligned box in R^2 or
R^3 together with an inside/outside mask whose inside cells form one
face-connected component.  Cell sets (plates, continua, rasterized regions)
are boolean arrays of the grid's shape.  Rasterization uses the cell-center
membership rule: a cell belongs to a region iff its center satisfies the
region predicate.

Each region predicate has one kernel, ``contains_axes``, on per-axis
coordinates: n arrays that broadcast together, with no reduction over a
short trailing axis.  ``contains`` passes it the views ``pts[..., k]`` of a
point array of shape (..., n); ``rasterize`` and ``GridDomain.box`` pass the
grid's n center vectors, shaped (c, 1[, 1]), (1, c[, 1]), ..., so the
(*cells, n) center array is never built.  They run the predicate on slabs
of whole rows along axis 0 (``row_slabs``, about ``SLAB_CELLS`` cells
each, the slabs ``distortion_coefficient`` walks too), each written into
one bool array, so a distance is one slab's size.  Every distance
accumulates its squares in axis order, as ``radius`` does, which is bit
for bit ``np.linalg.norm(pts - center, axis=-1)``; a box ANDs its
per-axis bounds.
Only ``MappedRegion`` stacks its coordinates into points, a slab at a
time; a ``GridDomain`` is a region on points too (``contains``).

A condenser's domain embeds its plates: a face between a free cell and a
plate cell is cut by the plate's boundary at the fraction theta in (0, 1]
of the center-to-center segment that lies outside the plate, and the energy
weights that face by 1/theta (Shortley & Weller 1938, in the symmetric form
of Gibou, Fedkiw, Cheng & Kang, J. Comput. Phys. 176, 2002).  theta comes
from bisection on the plate's recorded region predicate; a plate without
one keeps theta = 1, the cell-center staircase.

Cells are face-adjacent (4 neighbors in 2D, 6 in 3D), the stencil of the
energy.  ``GridDomain.inside_faces`` gives each axis's faces as shifted
slices of grid-shaped arrays, and the whole-grid energy kernels,
``FreeEnergy``'s face selection and ``GridDomain.cut_faces``, which keys
each cut face by its axis and its flat index in that axis's face array,
work on them.  The full face list, ``GridDomain.face_pairs``, is built
from them on each access; ``graph_distance`` is its one reader.  A grid
caches its cut faces and nothing else.
``connected`` checks the same face adjacency on a graph of row runs,
whose components ``scipy.sparse.csgraph`` counts.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .exceptions import DomainError, EmptySetError, GeometryError, _finite, _is_integer

# Bisection steps locating a plate boundary on a cut face, and the smallest
# theta kept (a boundary closer to a free center is placed at this fraction,
# which bounds the face weight at 1e6).
CUT_BISECTIONS = 40
THETA_MIN = 1e-6
# Cells per slab of a walk over a grid in whole rows along axis 0
# (rasterization, the distortion coefficient), rounded to whole rows.
SLAB_CELLS = 2**16


def _shift_slices(ndim: int, axis: int) -> tuple[tuple, tuple]:
    lo = tuple(slice(None, -1) if k == axis else slice(None) for k in range(ndim))
    hi = tuple(slice(1, None) if k == axis else slice(None) for k in range(ndim))
    return lo, hi


def row_slabs(cells: tuple) -> list:
    """Slices of whole rows along axis 0 of a grid of shape ``cells``, about ``SLAB_CELLS`` cells (and one row at least) each."""
    rows = max(1, SLAB_CELLS // math.prod(cells[1:]))
    return [slice(start, start + rows) for start in range(0, cells[0], rows)]


def _region_cells(region, axes: tuple, cells: tuple) -> np.ndarray:
    """``region.contains_axes(axes)`` on the grid of shape ``cells``, run per ``row_slabs`` slab into one bool array.

    The predicates are elementwise, so the result is bit for bit that of
    one call on the whole grid, with temporaries of one slab's size.
    """
    out = np.empty(cells, dtype=bool)
    for slab in row_slabs(cells):
        out[slab] = region.contains_axes((axes[0][slab], *axes[1:]))
    return out


def dilate_faces(cells: np.ndarray) -> np.ndarray:
    """Grow a cell set by one layer of face-neighbors (the set itself included)."""
    out = cells.copy()
    for axis in range(cells.ndim):
        lo, hi = _shift_slices(cells.ndim, axis)
        out[lo] |= cells[hi]
        out[hi] |= cells[lo]
    return out


def connected(cells: np.ndarray) -> bool:
    """True iff the cell set is empty or forms one face-connected component.

    Only the bounding box of the set is searched.  It comes from the
    per-axis ``np.any`` projections, each axis's taken over the cells that
    the earlier axes' reductions left.  A box the set fills is
    face-connected by construction and builds no graph.

    Otherwise the box's rows along the last axis are cut into runs of set
    cells, and the runs are the nodes of a graph (He, Chao & Suzuki, IEEE
    Trans. Image Process. 17, 2008).  One ``np.diff`` over the rows, each
    padded by one empty cell, gives every run's start and end as flat keys
    row * (L + 1) + column.  Along an earlier axis of row stride s, a run
    in row r joins the runs of rows r + s and r - s whose [start, end)
    overlaps its own; two ``searchsorted`` calls on the keys shifted by
    +-s rows find them, and a row that is last (first) along that axis has
    none in row r + s (r - s).  The set is connected iff the graph, one
    CSR with every edge stored both ways, has at most one component.
    """
    box = []
    rest = cells
    for _ in range(cells.ndim):
        hit = np.flatnonzero(rest.reshape(rest.shape[0], -1).any(axis=1))
        if not hit.size:
            return True
        box.append(slice(hit[0], hit[-1] + 1))
        rest = rest.any(axis=0)
    cells = cells[tuple(box)]
    if cells.all():
        return True
    shape = cells.shape
    width = shape[-1] + 1
    padded = np.zeros(cells.size // shape[-1] * width + 1, dtype=bool)
    padded[1:].reshape(-1, width)[:, :-1] = cells.reshape(-1, shape[-1])
    start, end = np.flatnonzero(np.diff(padded)).reshape(-1, 2).T
    row = start // width
    # lo[i, k]:hi[i, k] are the runs that run i touches in its k-th
    # neighbouring row: the next and the previous one along each earlier axis
    lo = np.empty((start.size, 2 * cells.ndim - 2), dtype=np.intp)
    hi = np.empty_like(lo)
    for axis in range(cells.ndim - 1):
        stride = math.prod(shape[axis + 1:-1])
        index = row // stride % shape[axis]
        for k, (step, edge) in enumerate([(stride, shape[axis] - 1), (-stride, 0)], 2 * axis):
            lo[:, k] = np.searchsorted(end, start + step * width, side="right")
            hi[:, k] = np.where(index == edge, lo[:, k], np.searchsorted(start, end + step * width))
    count = hi - lo
    indptr = np.zeros(start.size + 1, dtype=np.intp)
    np.cumsum(count.sum(axis=1), out=indptr[1:])
    count, lo = count.ravel(), lo.ravel()
    indices = np.arange(indptr[-1]) - np.repeat(np.cumsum(count) - count - lo, count)
    runs = sp.csr_array((np.ones(indices.size), indices, indptr), shape=(start.size, start.size))
    # each edge is stored both ways, so the strong components are the set's
    # components, and their search builds no transpose as an undirected one does
    return connected_components(runs, connection="strong", return_labels=False) <= 1


def graph_distance(grid: GridDomain, sources: np.ndarray) -> np.ndarray:
    """Face-hop count (int32) from the inside cells in ``sources`` to every inside cell.

    One multi-source search of the face graph on ``grid.face_pairs``; the
    result is in inside enumeration.  The inside cells form one component,
    so every count is finite once ``sources`` holds an inside cell.
    """
    m = grid.inside_count
    a, b = grid.face_pairs
    faces = sp.csr_array((np.ones(a.size), (a, b)), shape=(m, m))
    starts = np.flatnonzero(sources[grid.mask])
    hops = dijkstra(faces, directed=False, indices=starts, unweighted=True, min_only=True)
    return hops.astype(np.int32)


# ---------------------------------------------------------------------------
# Region predicates
# ---------------------------------------------------------------------------


def _axes(pts) -> tuple:
    """The coordinate views ``pts[..., k]`` of a point array (DomainError for a scalar)."""
    pts = np.asarray(pts)
    if pts.ndim == 0:
        raise DomainError("points need a trailing coordinate axis, got a scalar")
    return tuple(pts[..., k] for k in range(pts.shape[-1]))


def _axis_radius(xs, center) -> np.ndarray:
    """Distance from ``center`` of the points whose k-th coordinates are ``xs[k]``.

    The n coordinate arrays broadcast together and ``center`` has one entry
    (a number or an array broadcasting with them) per axis.  The squares
    accumulate in axis order into one array, as ``radius`` documents; on a
    grid's per-axis centers that array is the only full-size one.
    """
    if len(xs) != len(center):
        raise DomainError(f"points of dimension {len(xs)} against a center of shape ({len(center)},)")
    out = None
    for x, c in zip(xs, center):
        d = np.asarray(np.asarray(x, dtype=float) - c)
        d *= d
        if out is None:
            out = d
        elif out.shape == d.shape:
            out += d
        else:
            # asarray: a 0-d sum comes back a scalar, which the in-place sqrt cannot take
            out = np.asarray(out + d)
    np.sqrt(out, out=out)
    return out if out.ndim else out[()]


def radius(pts, center) -> np.ndarray:
    """Euclidean distance from ``center`` over the last axis of ``pts``.

    One coordinate at a time: the squares accumulate in axis order, which is
    what ``np.linalg.norm(pts - center, axis=-1)`` sums over a short axis,
    so the result is that norm bit for bit without its slow reduction.
    ``center`` is a point or any array that broadcasts against ``pts``; a
    single point gives a scalar.  DomainError when the two differ in
    dimension.
    """
    pts = np.asarray(pts, dtype=float)
    c = np.asarray(center, dtype=float)
    return _axis_radius(_axes(pts), _axes(c))


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


class Region:
    """Membership kernel on per-axis coordinates, and the point API over it.

    ``contains_axes(xs)`` takes the coordinates as n arrays ``xs[k]`` that
    broadcast together: the views ``pts[..., k]`` of a point array, or a
    grid's per-axis cell centers shaped (c, 1[, 1]), (1, c[, 1]), ...  It
    raises DomainError when n is not the region's dimension.
    """

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership of the points ``pts`` of shape (..., n)."""
        return self.contains_axes(_axes(pts))


@dataclass(frozen=True)
class Ball(Region):
    """Euclidean ball around ``center``; open by default, closed if requested."""

    center: tuple[float, ...]
    r: float
    closed: bool = False

    def __post_init__(self):
        if not self.r >= 0:
            raise DomainError(f"ball radius must be >= 0, got {self.r}")
        object.__setattr__(self, "center", _finite(self.center, "ball center"))

    def contains_axes(self, xs) -> np.ndarray:
        d = _axis_radius(xs, self.center)
        return d <= self.r if self.closed else d < self.r


@dataclass(frozen=True)
class SphereShell(Region):
    """Band of width ``thickness`` around the sphere of radius ``r``."""

    center: tuple[float, ...]
    r: float
    thickness: float

    def __post_init__(self):
        if not (self.r >= 0 and self.thickness >= 0):
            raise DomainError("sphere shell requires r >= 0 and thickness >= 0")
        object.__setattr__(self, "center", _finite(self.center, "sphere shell center"))

    def contains_axes(self, xs) -> np.ndarray:
        d = _axis_radius(xs, self.center)
        return np.abs(d - self.r) <= 0.5 * self.thickness


@dataclass(frozen=True)
class Annulus(Region):
    """Open annulus r1 < |x - center| < r2."""

    center: tuple[float, ...]
    r1: float
    r2: float

    def __post_init__(self):
        if not (0 <= self.r1 < self.r2):
            raise DomainError(f"annulus requires 0 <= r1 < r2, got r1={self.r1}, r2={self.r2}")
        object.__setattr__(self, "center", _finite(self.center, "annulus center"))

    def contains_axes(self, xs) -> np.ndarray:
        d = _axis_radius(xs, self.center)
        return (d > self.r1) & (d < self.r2)


@dataclass(frozen=True)
class Box(Region):
    """Closed axis-aligned box lo <= x <= hi."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", _finite(self.lo, "box corner lo"))
        object.__setattr__(self, "hi", _finite(self.hi, "box corner hi"))
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise DomainError("box requires lo <= hi componentwise")

    def contains_axes(self, xs) -> np.ndarray:
        if len(xs) != len(self.lo):
            raise DomainError(f"points of dimension {len(xs)} in a box of dimension {len(self.lo)}")
        out = None
        for x, lo, hi in zip(xs, self.lo, self.hi):
            side = (x >= lo) & (x <= hi)
            out = side if out is None else out & side
        return out


@dataclass(frozen=True)
class Complement(Region):
    region: object

    def contains_axes(self, xs) -> np.ndarray:
        return ~self.region.contains_axes(xs)


@dataclass(frozen=True)
class Union(Region):
    regions: tuple

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    def contains_axes(self, xs) -> np.ndarray:
        out = np.zeros(np.broadcast_shapes(*map(np.shape, xs)), dtype=bool)
        for r in self.regions:
            out |= r.contains_axes(xs)
        return out


@dataclass(frozen=True)
class Intersection(Region):
    regions: tuple

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))

    def contains_axes(self, xs) -> np.ndarray:
        out = np.ones(np.broadcast_shapes(*map(np.shape, xs)), dtype=bool)
        for r in self.regions:
            out &= r.contains_axes(xs)
        return out


# ---------------------------------------------------------------------------
# Grid domain
# ---------------------------------------------------------------------------


def _cell_counts(cells) -> tuple:
    """``cells`` as a tuple of ints: DomainError unless each is of an integer type."""
    if not all(map(_is_integer, cells)):
        raise DomainError(f"cells must be integers, got {tuple(cells)}")
    return tuple(map(int, cells))


def _axis_centers(origin, cells, h: float) -> tuple:
    """Per-axis cell-center coordinates of the grid with that origin, cells and h.

    The k-th is ``origin[k] + (i + 1/2) h`` for i < cells[k], shaped with
    cells[k] on axis k and 1 elsewhere, so the n vectors broadcast to the
    grid's shape.
    """
    n = len(cells)
    return tuple(
        (float(o) + (np.arange(c) + 0.5) * h).reshape([c if j == k else 1 for j in range(n)])
        for k, (o, c) in enumerate(zip(origin, cells))
    )


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid over an axis-aligned box with an inside mask.

    ``cells[k]`` cells of size ``h`` along axis k, so the box extent is
    ``cells[k] * h`` per axis; n (2 or 3) and the cells are of integer
    types (DomainError otherwise).  Cell (i, j, ...) has center
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
        if not _is_integer(self.n) or self.n not in (2, 3):
            raise DomainError(f"only dimensions 2 and 3 are supported, got n={self.n}")
        object.__setattr__(self, "origin", _finite(self.origin, "grid origin"))
        object.__setattr__(self, "cells", _cell_counts(self.cells))
        if not 0 < self.h < math.inf:
            raise DomainError(f"need a finite h > 0, got h={self.h}")
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
        cells = _cell_counts(cells)
        if region is None:
            mask = np.ones(cells, dtype=bool)
        else:
            mask = _region_cells(region, _axis_centers(origin, cells, h), cells)
        return cls(n, tuple(origin), cells, h, mask)

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(c * self.h for c in self.cells)

    @property
    def inside_count(self) -> int:
        return int(self.mask.sum())

    def axis_centers(self) -> tuple:
        """Cell-center coordinates per axis, broadcasting to the grid's shape (``_axis_centers``)."""
        return _axis_centers(self.origin, self.cells, self.h)

    def inside_centers_in(self, box: tuple) -> np.ndarray:
        """Centers of the inside cells in ``box``, in enumeration order, shape (count, n).

        ``box`` holds one slice per leading axis (step 1); the axes after it
        are taken whole, so ``inside_centers_in(())`` holds every inside
        center, and the rows for ``box`` are the matching rows of it, bit
        for bit.  Each coordinate is filled from its axis's center vector,
        broadcast over the box, without a meshgrid.
        """
        where = self.mask[box]
        out = np.empty((int(np.count_nonzero(where)), self.n))
        for k, axis in enumerate(self.axis_centers()):
            if k < len(box):
                axis = axis[(slice(None),) * k + (box[k],)]
            out[:, k] = np.broadcast_to(axis, where.shape)[where]
        return out

    @property
    def face_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Inside-enumeration indices (a, b), int32, of all face-adjacent inside pairs.

        Faces are listed axis by axis in row-major order.  Built from
        ``inside_faces`` through an int32 grid map on each access, and not
        kept: csgraph searches int32 indices, and would copy int64 ones.
        """
        idx = np.full(self.cells, -1, dtype=np.int32)
        idx[self.mask] = np.arange(self.inside_count, dtype=np.int32)
        parts = [(idx[lo][both], idx[hi][both]) for lo, hi, both in self.inside_faces()]
        a, b = (np.concatenate(side) for side in zip(*parts))
        return a, b

    def with_plates(self, plates) -> "GridDomain":
        """The same grid with the (cells, region) pairs ``plates`` embedded.

        A shallow copy whose cut faces are found for the new plates on first use.
        """
        out = copy.copy(self)
        object.__setattr__(out, "plates", tuple(plates))
        out.__dict__.pop("cut_faces", None)
        return out

    @cached_property
    def cut_faces(self) -> tuple:
        """Faces cut by an embedded plate boundary, with their weights 1/theta, per axis.

        Returns one (flat, weights) pair per axis, in ``inside_faces`` order:
        the flat indices, in an array of the axis's ``both`` shape, of the
        faces between a free cell and a plate cell whose theta is below 1,
        ascending, and 1/theta for each.  theta is the fraction of the
        segment from the free cell's center to the plate cell's center that
        lies outside the plate region.  It is 1 when the plate records no
        region or the region does not separate the two centers.

        The faces are found by shifted slices of a grid-shaped plate-owner
        array.  A segment runs along its face's axis, so only that
        coordinate is bisected (``_cut_fraction``), and a plate's segments
        of every axis are bisected together: one predicate call per step
        for the plate, not one per axis.
        """
        owner = np.full(self.cells, -1, dtype=np.int8)
        for k, (cells, _) in enumerate(self.plates):
            owner[cells] = k
        plate = owner >= 0
        free = self.mask & ~plate
        centers = [c.ravel() for c in self.axis_centers()]
        # every axis's cut faces, axis by axis: flat index, plate, lo cell center and segment ends
        flats, owners, coords, ends = [], [], [], []
        for axis, (lo, hi, _) in enumerate(self.inside_faces()):
            a_plate = plate[lo] & free[hi]
            cut = a_plate | (free[lo] & plate[hi])
            flat = np.flatnonzero(cut)
            a_plate = a_plate[cut]
            ijk = np.unravel_index(flat, cut.shape)
            xs = [c[i] for c, i in zip(centers, ijk)]
            b_x = centers[axis][ijk[axis] + 1]
            flats.append(flat)
            owners.append(np.where(a_plate, owner[lo][cut], owner[hi][cut]))
            coords.append(xs)
            ends.append((np.where(a_plate, b_x, xs[axis]), np.where(a_plate, xs[axis], b_x)))
        bounds = np.cumsum([0] + [flat.size for flat in flats])
        owners = np.concatenate(owners)
        coords = [np.concatenate(xs) for xs in zip(*coords)]
        start, stop = (np.concatenate(side) for side in zip(*ends))
        w = np.ones(bounds[-1])
        for k, (_, region) in enumerate(self.plates):
            sel = np.flatnonzero(owners == k)
            if region is None or not sel.size:
                continue
            # plate k's segments of every axis, bisected together
            at = np.searchsorted(sel, bounds)
            moves = list(enumerate(map(slice, at[:-1], at[1:])))
            xs = [c[sel] for c in coords]
            w[sel] = 1.0 / _cut_fraction(region, xs, moves, start[sel], stop[sel])
        out = []
        for flat, a, b in zip(flats, bounds[:-1], bounds[1:]):
            keep = w[a:b] != 1.0
            out.append((flat[keep], w[a:b][keep]))
            for part in out[-1]:
                part.setflags(write=False)
        return tuple(out)

    def inside_faces(self):
        """Each axis's faces as shifted slices: one (lo, hi, both) per axis.

        lo and hi are the axis's shift slices, and ``both`` = mask[lo] &
        mask[hi] flags its inside faces: the face at index i of an array of
        ``both``'s shape joins cell lo-slice i to cell hi-slice i.
        """
        for axis in range(self.n):
            lo, hi = _shift_slices(self.n, axis)
            yield lo, hi, self.mask[lo] & self.mask[hi]

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
        """True where a point of ``pts`` (..., n) lies in an inside cell, shape (...): the grid as a region."""
        idx, valid = self.locate(pts)
        return valid & self.mask[tuple(np.moveaxis(idx, -1, 0))]


def rasterize(region, grid: GridDomain) -> np.ndarray:
    """Cell set of inside cells whose centers satisfy the region predicate.

    The predicate runs on the grid's per-axis centers, slab by slab of whole
    rows along axis 0 (``row_slabs``); no center array is built, and a
    distance is one slab's size.
    """
    out = _region_cells(region, grid.axis_centers(), grid.cells)
    out &= grid.mask
    return out


def _cut_fraction(region, xs: list, moves: list, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Fraction theta in (0, 1] of each segment start -> stop before it enters ``region``.

    ``xs`` holds the segments' per-axis coordinates as 1-D arrays, and
    ``moves`` (axis, part) pairs: the segments in slice ``part`` run along
    ``axis``, so that entry of xs is replaced on them by the points
    start + t (stop - start).  Bisection on the predicate, one call per
    step for every segment; theta = 1 where ``start`` is not outside or
    ``stop`` not inside the region.  The bracket [lo, hi] is dyadic, so
    its midpoint lo + half is exact.
    """
    lo = np.zeros(len(start))
    hi = np.ones(len(start))
    delta = stop - start

    def contains(points):
        for axis, part in moves:
            xs[axis][part] = points[part]
        return region.contains_axes(xs)

    half = 1.0
    for _ in range(CUT_BISECTIONS):
        half *= 0.5
        mid = lo + half
        inside = contains(start + mid * delta)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    separated = ~contains(start) & contains(stop)
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
        """Inside-enumeration indices of the cells of E, ascending."""
        return np.flatnonzero(self.E[self.domain.mask])

    @cached_property
    def f_indices(self) -> np.ndarray:
        """Inside-enumeration indices of the cells of F, as ``e_indices``."""
        return np.flatnonzero(self.F[self.domain.mask])

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

    Every pair is scanned, in chunks of rows holding about ``SLAB_CELLS``
    distances each.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if len(pts) == 0:
        raise EmptySetError("diameter of an empty point set")
    best = 0.0
    step = max(1, SLAB_CELLS // len(pts))
    for i in range(0, len(pts), step):
        best = max(best, float(radius(pts[i : i + step, None, :], pts).max()))
    return best
