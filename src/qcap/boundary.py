"""Boundary probes: strong accessibility and cluster-set estimates.

A boundary point x0 is strongly accessible (with respect to p-capacity)
when some compact E and neighborhoods V inside U of x0 give a uniform lower
bound cp_p(E, F; Omega) >= delta for EVERY continuum F crossing the shell
between the boundaries of V and U.  That is a universally quantified
property; the probe samples finitely many crossing continua and reports

    delta_hat = min over sampled continua of cp_p(E, F; Omega),

a one-sided empirical estimate, together with the diagnostic geometric
bound min(diam E, diam F) / R^(1+p-n) for domains enclosed in a ball of
radius R.  The bound holds up to a constant C that theory does not pin
down; it is reported at C = 1 for comparison, never asserted, and is null
outside n-1 < p <= n, where it does not apply.

The cluster set of an inverse mapping at an image boundary point b collects
all limits of phi^{-1}(x_k) over sequences x_k -> b inside the image.  The
estimator follows several approach sequences with geometrically shrinking
steps 2^{-k} (straight and spiral patterns), maps their tails, and merges
the images at radius 2h: a singleton estimate is the discrete shadow of
continuous boundary extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .capacity import SolverOptions, accessibility_lower_bound, solve_capacity
from .exceptions import DomainError, GeometryError
from .grid import (
    Condenser, GridDomain, _as_point, connected, diameter, dilate_faces, directions, point_diameter, rasterize
)


@dataclass
class AccessibilityProbe:
    """Inputs of one strong-accessibility probe at the boundary point x0."""

    x0: tuple
    U: object
    V: object
    E: np.ndarray = field(repr=False)
    p: float
    sampled_continua: list = field(repr=False)


@dataclass
class ClusterSetEstimate:
    """Merged limit-point estimates and their spread."""

    points: tuple
    diameter: float

    @classmethod
    def from_points(cls, pts: np.ndarray) -> "ClusterSetEstimate":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return cls(tuple(map(tuple, pts.tolist())), point_diameter(pts))


def boundary_layer(cells: np.ndarray) -> np.ndarray:
    """Cells of the set that touch its face-complement."""
    return cells & dilate_faces(~cells)


def _tube(points: np.ndarray, grid: GridDomain) -> np.ndarray:
    """Cell set swept by a polyline sampled at h/2, thickened by one cell."""
    idx, valid = grid.locate(points)
    cells = np.zeros(grid.cells, dtype=bool)
    sel = tuple(np.moveaxis(idx[valid], -1, 0))
    cells[sel] = True
    return dilate_faces(cells)


def check_shell_radii(r_v: float, r_u: float) -> None:
    """DomainError unless 0 < r_v < r_u: the radii of the shell the probe's continua cross."""
    if not 0 < r_v < r_u:
        raise DomainError(f"shell radii must satisfy 0 < r_v < r_u, got {r_v}, {r_u}")


def _spread_order(count: int) -> list:
    """0, ..., count - 1 in bit-reversed order, so that every prefix spreads over the range."""
    bits = max(1, (count - 1).bit_length())
    return sorted(range(count), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def sample_shell_continua(
    x0,
    r_u: float,
    r_v: float,
    grid: GridDomain,
    count: int,
    rng: np.random.Generator | None = None,
) -> list:
    """Thickened radial tubes crossing the shell between radii r_v and r_u.

    The max(4 count, 16) candidate directions are ``grid.directions`` turned
    by a seeded random phase, visited in bit-reversed order so that the
    accepted ones spread around x0.  A direction whose tube misses the
    domain or fails to stay connected is skipped; the first ``count`` valid
    tubes are kept (GeometryError when the domain admits too few).
    """
    check_shell_radii(r_v, r_u)
    if count < 1:
        raise DomainError("need at least one continuum")
    rng = rng or np.random.default_rng(0)
    x0 = _as_point(x0, grid.n)
    phase = rng.uniform(0.0, 2 * math.pi)
    h = grid.h
    radii = np.arange(max(r_v - h, h / 2), r_u + h, h / 2)
    out: list = []
    candidates = directions(grid.n, max(4 * count, 16), phase)
    for i in _spread_order(len(candidates)):
        if len(out) == count:
            break
        tube = _tube(x0 + radii[:, None] * candidates[i], grid) & grid.mask
        if tube.any() and connected(tube):
            out.append(tube)
    if len(out) < count:
        raise GeometryError(f"only {len(out)} of {count} shell continua fit the domain")
    return out


def probe_strong_accessibility(
    probe: AccessibilityProbe,
    grid: GridDomain,
    opts: SolverOptions | None = None,
) -> dict:
    """Capacity of (E, F) against every sampled crossing continuum F.

    Validates the probe geometry at cell level (V strictly inside U, each
    continuum connected and meeting both boundary layers), then reports the
    minimum capacity delta_hat and the diagnostic geometric bound at C = 1,
    or None for p outside (n-1, n].
    """
    ras_u = rasterize(probe.U, grid)
    ras_v = rasterize(probe.V, grid)
    if not ras_v.any() or not ras_u.any():
        raise GeometryError("U and V must both contain cells")
    if (ras_v & ~ras_u).any():
        raise GeometryError("V must lie inside U")
    if not (ras_u & ~ras_v).any():
        raise GeometryError("the shell between V and U is empty")
    if not probe.sampled_continua:
        raise GeometryError("at least one sampled continuum is required")
    layer_u = boundary_layer(ras_u)
    layer_v = boundary_layer(ras_v)
    e_cells = probe.E.astype(bool)
    diam_e = diameter(e_cells, grid)
    centers = grid.inside_centers
    centroid = centers.mean(axis=0)
    R = float(np.linalg.norm(centers - centroid, axis=1).max())
    per = []
    delta_hat = math.inf
    min_diam_f = math.inf
    all_converged = True
    for cells in probe.sampled_continua:
        cells = cells.astype(bool)
        if not connected(cells):
            raise GeometryError("a sampled continuum is not connected")
        if not (cells & layer_u).any() or not (cells & layer_v).any():
            raise GeometryError("a sampled continuum misses a shell boundary")
        cond = Condenser(e_cells, cells & grid.mask, grid)
        res = solve_capacity(cond, probe.p, opts)
        d = diameter(cells, grid)
        per.append({"capacity": res.value, "diameter": d, "converged": res.converged})
        delta_hat = min(delta_hat, res.value)
        min_diam_f = min(min_diam_f, d)
        all_converged = all_converged and res.converged
    applies = grid.n - 1 < probe.p <= grid.n
    bound = accessibility_lower_bound(diam_e, min_diam_f, R, probe.p, grid.n) if applies else None
    return {
        "delta_hat": delta_hat,
        "geometric_bound": bound,
        "enclosing_radius": R,
        "diam_e": diam_e,
        "min_diam_f": min_diam_f,
        "per_continuum": per,
        "converged": all_converged,
    }


def _frame(e_in: np.ndarray) -> list:
    """Unit vectors orthogonal to the inward direction."""
    n = len(e_in)
    basis = []
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        v -= np.dot(v, e_in) * e_in
        for u in basis:
            v -= np.dot(v, u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
        if len(basis) == n - 1:
            break
    return basis


def _inward_direction(b: np.ndarray, grid: GridDomain) -> np.ndarray:
    """Unit vector from b to the mean of the inside centers within 3h of the nearest one.

    The centers are searched in a box of cells around ``grid.locate(b)``
    that doubles until b lies at least that reach from every side of the
    box with cells beyond it, so no center outside can qualify.  The box's
    rows come in inside-enumeration order, so the mean is the one taken
    over all inside centers, bit for bit.
    """
    idx, _ = grid.locate(b)
    cells = np.asarray(grid.cells)
    origin = np.asarray(grid.origin)
    r = 4
    while True:
        lo = np.maximum(idx - r, 0)
        hi = np.minimum(idx + r + 1, cells)
        rows = grid.inside_index[tuple(slice(a, z) for a, z in zip(lo, hi))]
        centers = grid.inside_centers[rows[rows >= 0]]
        whole = (lo == 0).all() and (hi == cells).all()
        if centers.size or whole:
            dist = np.linalg.norm(centers - b, axis=1)
            reach = dist.min() + 3 * grid.h
            # Distance from b to each side of the box with cells beyond it.
            gaps = np.concatenate([
                np.where(lo > 0, b - (origin + lo * grid.h), np.inf),
                np.where(hi < cells, origin + hi * grid.h - b, np.inf),
            ])
            if gaps.min() >= reach:
                break
        r *= 2
    near = centers[dist <= reach]
    v = near.mean(axis=0) - b
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DomainError("cannot determine an inward direction at this point")
    return v / norm


def estimate_cluster_set(
    m_inverse, b, sequences: int, depth: int, grid: GridDomain
) -> ClusterSetEstimate:
    """Estimate the cluster set of ``m_inverse`` at the image boundary point b.

    ``grid`` is the image-side domain: it supplies the interior test for b,
    the inside test for approach points, and the merge radius 2h.  Sequence
    j tilts the inward direction by 0.45 j / (sequences - 1) times a
    tangential spiral turning by 2 pi (j + 1) / sequences per step, and
    steps radii r0 * 2^{-k}, k = 1..depth, with r0 = 8h; each step offers
    the tilt scaled by 1, 1/2 and 0.  All sequences x steps x scales
    candidates go through one ``grid.contains`` call.  A sequence's tail is
    its deepest step with an inside candidate, the first such candidate at
    that step; sequences without one are dropped.  The tails are mapped and
    the images merged at radius 2h.
    """
    if sequences < 1 or depth < 1:
        raise DomainError("need at least one sequence and one depth step")
    b = _as_point(b, grid.n)
    idx, valid = grid.locate(b)
    # b is interior when its cell and the cell's face neighbours are all
    # inside cells; a neighbour beyond the grid box is outside the domain.
    unit = np.eye(grid.n, dtype=int)
    near = idx + np.vstack([np.zeros(grid.n, dtype=int), unit, -unit])
    if valid and ((near >= 0) & (near < grid.cells)).all() and grid.mask[tuple(near.T)].all():
        raise DomainError("b is an interior point of the image domain")
    e_in = _inward_direction(b, grid)
    tangents = _frame(e_in)
    r0 = 8 * grid.h
    steps = range(1, depth + 1)
    turns = [[2 * math.pi * (j + 1) / sequences * k for k in steps] for j in range(sequences)]
    # Scalar math.cos/math.sin: np.cos/np.sin may take SIMD code that rounds differently on some CPUs.
    wobble = np.array([[math.cos(a) for a in row] for row in turns])[..., None] * tangents[0]
    if len(tangents) > 1:
        wobble = wobble + np.array([[math.sin(a) for a in row] for row in turns])[..., None] * tangents[1]
    tilt = 0.45 * np.arange(sequences) / max(1, sequences - 1)
    scale = tilt[:, None] * np.array([1.0, 0.5, 0.0])
    # Axes (sequence, step, scale, coordinate).
    direction = e_in + scale[:, None, :, None] * wobble[:, :, None, :]
    # Each (1, n) @ (n, 1) product is the dot product np.linalg.norm takes for one vector.
    direction /= np.sqrt(direction[..., None, :] @ direction[..., :, None])[..., 0]
    t = np.array([r0 * 2.0**-k for k in steps])
    cand = b + t[:, None, None] * direction
    inside = grid.contains(cand)
    hit = inside.any(axis=2)
    kept = np.flatnonzero(hit.any(axis=1))
    if not kept.size:
        raise DomainError("no approach sequence stays inside the image domain")
    deepest = depth - 1 - np.argmax(hit[kept, ::-1], axis=1)
    first = np.argmax(inside[kept, deepest], axis=1)
    images = m_inverse.evaluate(cand[kept, deepest, first])
    return _merge_points(images, 2 * grid.h)


def _merge_points(pts: np.ndarray, radius: float) -> ClusterSetEstimate:
    """Merge points joined by chains of steps at most ``radius``; group centroids survive.

    The groups are the connected components of the radius graph, labelled
    in order of their lowest point index, so the centroids keep that order.
    """
    pts = np.atleast_2d(pts)
    near = np.linalg.norm(pts[:, None] - pts[None], axis=-1) <= radius
    count, labels = connected_components(near, directed=False)
    reps = np.array([pts[labels == k].mean(axis=0) for k in range(count)])
    return ClusterSetEstimate.from_points(reps)
