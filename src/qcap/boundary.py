"""Boundary probes: strong accessibility and cluster-set estimates.

A boundary point x0 is strongly accessible (with respect to p-capacity)
when some compact E and neighborhoods V inside U of x0 give a uniform lower
bound cp_p(E, F; Omega) >= delta for EVERY continuum F crossing the shell
between the boundaries of V and U.  That is a universally quantified
property; the probe takes V and U as the balls of radii r_v < r_u around
x0, samples finitely many crossing continua and reports

    delta_hat = min over sampled continua of cp_p(E, F; Omega),

a one-sided empirical estimate, with each continuum's capacity beside it.

The cluster set of an inverse mapping at an image boundary point b collects
all limits of phi^{-1}(x_k) over sequences x_k -> b inside the image.  The
estimator follows several approach sequences with geometrically shrinking
steps 2^{-k} (straight and spiral patterns), maps their tails, and merges
the images at radius 2h: a singleton estimate is the discrete shadow of
continuous boundary extension.  The probe and the estimator reject an
interior x0 or b by one cell test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .capacity import SolverOptions, solve_capacity
from .exceptions import DomainError, GeometryError
from .grid import (
    Ball, Condenser, GridDomain, _as_point, connected, dilate_faces, directions, point_diameter, radius, rasterize,
)


@dataclass
class ClusterSetEstimate:
    """Merged limit-point estimates and their spread."""

    points: tuple
    diameter: float

    @classmethod
    def from_points(cls, pts: np.ndarray) -> "ClusterSetEstimate":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return cls(tuple(map(tuple, pts.tolist())), point_diameter(pts))


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


def _check_boundary_point(x: np.ndarray, grid: GridDomain, name: str) -> None:
    """DomainError when x is interior: its cell and the cell's 2n face neighbours are all inside cells.

    A neighbour beyond the grid box is outside the domain.
    """
    idx, valid = grid.locate(x)
    unit = np.eye(grid.n, dtype=int)
    near = idx + np.vstack([np.zeros(grid.n, dtype=int), unit, -unit])
    if valid and ((near >= 0) & (near < grid.cells)).all() and grid.mask[tuple(near.T)].all():
        raise DomainError(f"{name} is an interior point of the domain")


def _shell_crossing(x0: np.ndarray, r_u: float, r_v: float, grid: GridDomain):
    """Test whether a cell set crosses the shell between the balls V = B(x0, r_v) and U = B(x0, r_u).

    It must meet both balls' layers, each taken relative to the domain: the
    ball's cells with a face neighbour in the domain outside the ball.
    GeometryError when a ball or the shell between them has no inside cell.
    """
    ball_u = rasterize(Ball(x0, r_u), grid)
    ball_v = rasterize(Ball(x0, r_v), grid)
    if not ball_v.any() or not ball_u.any():
        raise GeometryError("U and V must both contain cells")
    if not (ball_u & ~ball_v).any():
        raise GeometryError("the shell between V and U is empty")
    layers = [ball & dilate_faces(grid.mask & ~ball) for ball in (ball_v, ball_u)]
    return lambda cells: all((cells & layer).any() for layer in layers)


def _spread_order(count: int) -> list:
    """0, ..., count - 1 in bit-reversed order, so that every prefix spreads over the range."""
    bits = max(1, (count - 1).bit_length())
    return sorted(range(count), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def sample_shell_continua(
    x0,
    r_u: float,
    r_v: float,
    e_cells: np.ndarray,
    grid: GridDomain,
    count: int,
    rng: np.random.Generator | None = None,
) -> list:
    """Thickened radial tubes crossing the shell between radii r_v and r_u around the boundary point x0.

    The max(4 count, 16) candidate directions are ``grid.directions`` turned
    by a seeded random phase, visited in bit-reversed order so that the
    accepted ones spread around x0.  A tube, cut to the domain, is skipped
    unless it passes the probe's crossing test, is connected, misses the
    probe's plate E = ``e_cells`` and differs from every tube kept so far;
    the first ``count`` valid tubes are kept (GeometryError when there are
    fewer).
    """
    check_shell_radii(r_v, r_u)
    if count < 1:
        raise DomainError("need at least one continuum")
    rng = rng or np.random.default_rng(0)
    x0 = _as_point(x0, grid.n)
    _check_boundary_point(x0, grid, "x0")
    crosses = _shell_crossing(x0, r_u, r_v, grid)
    phase = rng.uniform(0.0, 2 * math.pi)
    h = grid.h
    radii = np.arange(max(r_v - h, h / 2), r_u + h, h / 2)
    out: list = []
    kept: set = set()
    candidates = directions(grid.n, max(4 * count, 16), phase)
    e_cells = e_cells.astype(bool)
    for i in _spread_order(len(candidates)):
        if len(out) == count:
            break
        tube = _tube(x0 + radii[:, None] * candidates[i], grid) & grid.mask
        key = tube.tobytes()
        if key not in kept and not (tube & e_cells).any() and crosses(tube) and connected(tube):
            kept.add(key)
            out.append(tube)
    if len(out) < count:
        raise GeometryError(f"only {len(out)} of {count} shell continua fit the domain")
    return out


def probe_strong_accessibility(
    x0, r_u: float, r_v: float, e_cells: np.ndarray, p: float, continua: list, grid: GridDomain,
    opts: SolverOptions | None = None,
) -> dict:
    """Capacity of (E, F) for the plate E = ``e_cells`` against every sampled continuum F.

    Each F must pass the sampler's crossing test for the shell between
    radii r_v and r_u around the boundary point x0.  Reports the minimum
    capacity delta_hat, each continuum's capacity and whether every solve
    converged.
    """
    check_shell_radii(r_v, r_u)
    x0 = _as_point(x0, grid.n)
    _check_boundary_point(x0, grid, "x0")
    crosses = _shell_crossing(x0, r_u, r_v, grid)
    if not continua:
        raise GeometryError("at least one sampled continuum is required")
    e_cells = e_cells.astype(bool)
    per = []
    for cells in continua:
        cells = cells.astype(bool) & grid.mask
        if not crosses(cells):
            raise GeometryError("a sampled continuum does not cross the shell")
        res = solve_capacity(Condenser(e_cells, cells, grid), p, opts)
        per.append({"capacity": res.value, "converged": res.converged})
    return {
        "delta_hat": min(item["capacity"] for item in per),
        "per_continuum": per,
        "converged": all(item["converged"] for item in per),
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
    centers come from ``grid.inside_centers_in`` in inside-enumeration
    order, so the mean is the one taken over all inside centers, bit for
    bit, and the grid's whole center array is never built.
    """
    idx, _ = grid.locate(b)
    cells = np.asarray(grid.cells)
    origin = np.asarray(grid.origin)
    r = 4
    while True:
        lo = np.maximum(idx - r, 0)
        hi = np.minimum(idx + r + 1, cells)
        centers = grid.inside_centers_in(tuple(slice(a, z) for a, z in zip(lo, hi)))
        whole = (lo == 0).all() and (hi == cells).all()
        if centers.size or whole:
            dist = radius(centers, b)
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
    _check_boundary_point(b, grid, "b")
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


def _merge_points(pts: np.ndarray, reach: float) -> ClusterSetEstimate:
    """Merge points joined by chains of steps at most ``reach``; group centroids survive.

    The groups are the connected components of the radius graph, labelled
    in order of their lowest point index, so the centroids keep that order.
    """
    pts = np.atleast_2d(pts)
    near = radius(pts[:, None], pts) <= reach
    count, labels = connected_components(near, directed=False)
    reps = np.array([pts[labels == k].mean(axis=0) for k in range(count)])
    return ClusterSetEstimate.from_points(reps)
