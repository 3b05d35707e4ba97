"""Discrete p-modulus of sampled curve families.

The p-modulus of a curve family is the infimum of the p-integral of
densities rho >= 0 whose line integral along every curve is at least 1.
Discretely, for a finite family of polylines,

    minimize  h^n * sum_c rho(c)^p
    s.t.      sum_{segments of gamma} rho(cell at segment midpoint) * len >= 1
              for every curve gamma, and rho >= 0.

The program is solved through its Lagrange dual, one variable per curve:
minimize (p-1) h^n sum_c rho(lam)^p - sum_i lam_i over lam >= 0, with
rho(lam) = ((A^T lam)_+ / (p h^n))^(1/(p-1)) and A the curve-by-cell matrix
of segment lengths, by scipy's L-BFGS-B from lam = 1.  Minus its value
is a certified lower bound; rho(lam), scaled so its tightest constraint
holds exactly, is admissible, and its energy is a certified upper bound
(Albin, Poggi-Corradini, J. Anal. 24 (2016)).  For the family of ALL
curves joining condenser plates the modulus equals the capacity (Hesse,
Shlyk), so a sampled subfamily gives a value sandwiched between 0 and the
discrete capacity, approaching it as sampling and resolution grow.  The
radial curves sampled for a ring condenser start in a cell of its plate E
and end in a cell of F, looked up in the condenser's own cell sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .capacity import SolverOptions, solve_capacity
from .descent import minimize_projected
from .exceptions import DomainError, GeometryError, _is_integer
from .energy import EnergyParams
from .grid import Ball, Complement, Condenser, GridDomain, directions, radius

# The largest relative gap between the admissible value and the dual bound
# that counts as converged.
GAP_TOL = 1e-6


@dataclass(frozen=True)
class CurveFamily:
    """Polylines with at least two points and positive length each."""

    curves: tuple

    def __post_init__(self):
        curves = tuple(np.asarray(c, dtype=float) for c in self.curves)
        if any(c.ndim != 2 or len(c) < 2 for c in curves):
            raise DomainError("each curve needs at least two points")
        if len({c.shape[1] for c in curves}) > 1:
            raise DomainError("every curve needs the same dimension")
        if curves:
            # One pass over the concatenated points: each curve's segments are
            # summed with the joins to the next curve zeroed.  The segment
            # lengths are >= 0 or NaN, so a sum is <= 0 exactly when every
            # term is 0, as for each curve's own sum.
            starts = np.cumsum([0] + [len(c) for c in curves[:-1]])
            points = np.concatenate(curves)
            segments = radius(points[1:], points[:-1])
            segments[starts[1:] - 1] = 0.0
            if np.any(np.add.reduceat(segments, starts) <= 0):
                raise DomainError("each curve must have positive length")
        object.__setattr__(self, "curves", curves)

    def __len__(self) -> int:
        return len(self.curves)

    def lengths(self) -> np.ndarray:
        return np.array([float(radius(c[1:], c[:-1]).sum()) for c in self.curves])


@dataclass
class ModulusResult:
    """A certified bracket ``lower <= optimum <= value`` of the sampled program.

    ``density`` holds rho >= 0 per inside cell, in inside enumeration;
    ``value`` is its energy.  ``iterations`` counts L-BFGS-B iterations on
    the dual.  ``converged`` means the bracket is certified: the density is
    admissible and value - lower <= GAP_TOL * value.
    """

    value: float
    lower: float
    admissible_ok: bool
    converged: bool
    iterations: int
    density: np.ndarray


def _ring_radii(c: Condenser) -> tuple[np.ndarray, float, float]:
    """Recover (center, r1, r2) from a ring condenser's recorded regions."""
    e, f = c.region_e, c.region_f
    if isinstance(e, Ball) and isinstance(f, Complement) and isinstance(f.region, Ball) and e.center == f.region.center:
        return np.asarray(e.center), e.r, f.region.r
    raise GeometryError("curve sampling needs a condenser built from concentric ring plates")


def _plate_reach(x0, r0: float, dirs, grid: GridDomain, plate: np.ndarray, step: float) -> np.ndarray:
    """Radius on each of ``dirs`` that lands in ``plate``: r0 plus at most five ``step``s, floored at h/4."""
    r = np.full(len(dirs), float(r0))
    todo = np.arange(len(dirs))
    for _ in range(6):  # the start and five steps; the sixth step is never looked at
        idx, valid = grid.locate(x0 + r[todo, None] * dirs[todo])
        todo = todo[~(valid & plate[tuple(idx.T)])]
        if not todo.size:
            return r
        r[todo] = np.maximum(r[todo] + step, grid.h / 4)
    raise GeometryError(f"curve {todo[0]} does not reach its plate within five quarter-cell steps")


def sample_radial_curves(cond: Condenser, count: int) -> CurveFamily:
    """Straight radial segments across the ring of ``cond``'s recorded plates
    (GeometryError for other plates) at ``count`` >= 1 directions, on ``cond.domain``.

    Directions are equispaced angles in 2D and a Fibonacci-sphere set in 3D.
    Each segment is discretized at step h/2; its ends move from r1 inward
    and from r2 outward, in at most five quarter-cell steps, until they lie
    in cells of ``cond.E`` and ``cond.F`` (GeometryError otherwise), so
    every curve joins the condenser's own plates.
    """
    if not _is_integer(count) or count < 1:
        raise DomainError(f"need an integer count of at least one curve, got count={count}")
    x0, r1, r2 = _ring_radii(cond)
    grid = cond.domain
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.extent)
    margin = 1.5 * grid.h
    if np.any(x0 - r2 - margin < lo) or np.any(x0 + r2 + margin > hi):
        raise GeometryError("ring (plus a one-cell margin) exits the grid")
    dirs = directions(grid.n, count)
    r_in = _plate_reach(x0, r1, dirs, grid, cond.E, -grid.h / 4)
    r_out = _plate_reach(x0, r2, dirs, grid, cond.F, grid.h / 4)
    radii = (np.append(np.arange(a, b, grid.h / 2), b) for a, b in zip(r_in, r_out))
    return CurveFamily(tuple(x0 + r[:, None] * d for r, d in zip(radii, dirs)))


def _constraint_matrix(fam: CurveFamily, grid: GridDomain) -> sp.csr_matrix:
    """Sparse curve-by-cell matrix of segment lengths at midpoint cells."""
    pts = np.concatenate(fam.curves)
    ids = np.repeat(np.arange(len(fam)), [len(c) for c in fam.curves])
    mids = 0.5 * (pts[1:] + pts[:-1])
    lens = radius(pts[1:], pts[:-1])
    # Keep the segments inside one curve, and of positive length.
    keep = (ids[1:] == ids[:-1]) & (lens > 0)
    rows, mids, lens = ids[1:][keep], mids[keep], lens[keep]
    idx, valid = grid.locate(mids)
    flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), grid.cells)
    out = ~valid | ~grid.mask.reshape(-1)[flat]
    if out.any():
        raise GeometryError(f"curve {rows[out.argmax()]} leaves the domain")
    # a midpoint cell's column is its rank among the inside cells
    cells = np.searchsorted(np.flatnonzero(grid.mask), flat)
    return sp.coo_matrix((lens, (rows, cells)), shape=(len(fam), grid.inside_count)).tocsr()


def modulus_lower_bound(fam: CurveFamily, p: float, grid: GridDomain) -> ModulusResult:
    """Bracket the sampled modulus program: lower <= optimum <= value.

    ``value`` is the energy of an admissible density, ``lower`` the dual
    value; the program itself is a lower estimate of the capacity.  Of the
    multipliers the dual evaluates, the one whose density, scaled to be
    admissible, has the least energy gives the density and ``value``.
    ``converged``: the density is admissible and value - lower <= GAP_TOL *
    value, whatever the optimizer's exit reason.
    An empty family has modulus 0.
    """
    EnergyParams(p)  # DomainError unless p > 1
    if len(fam) == 0:
        return ModulusResult(0.0, 0.0, True, True, 0, np.zeros(grid.inside_count))
    a = _constraint_matrix(fam, grid)
    hn = grid.h**grid.n
    best_ratio, best_lam = math.inf, None

    def density(lam):
        return (np.maximum(a.T @ lam, 0.0) / (p * hn)) ** (1.0 / (p - 1.0))

    def negated_dual(lam):
        nonlocal best_ratio, best_lam
        rho = density(lam)
        power = float(np.sum(rho**p))
        margins = a @ rho
        # power / worst^p is h^-n times the energy of rho scaled so its tightest
        # constraint holds; numpy scalars overflow to inf where floats would raise.
        worst = margins.min()
        if worst > 0 and power < best_ratio * worst**p:
            best_ratio, best_lam = power / worst**p, lam.copy()
        return (p - 1.0) * hn * power - float(np.sum(lam)), margins - 1.0

    res = minimize_projected(negated_dual, np.ones(len(fam)))
    lower = -res.value
    rho = density(res.x if best_lam is None else best_lam)
    # Feasibility repair: scale so the tightest constraint holds exactly.
    margins = a @ rho
    worst = float(margins.min())
    if worst <= 0:
        return ModulusResult(math.inf, lower, False, False, res.iterations, rho)
    rho = rho * ((1.0 + 1e-12) / worst)
    admissible = bool((a @ rho).min() >= 1.0)
    value = hn * float(np.sum(rho**p))
    converged = admissible and value - lower <= GAP_TOL * value
    return ModulusResult(value, lower, admissible, converged, res.iterations, rho)


def check_hesse_shlyk(
    c: Condenser,
    p: float,
    curve_count: int,
    opts: SolverOptions | None = None,
) -> dict:
    """Compare the sampled-curve modulus against the condenser capacity.

    ``sample_radial_curves(c, curve_count)`` gives the curves, which join
    the condenser's own plates on its grid ``c.domain``; the modulus
    program and the capacity both use that grid.
    The continuum statement is equality; discretely the sampled modulus must
    stay in (0, capacity * (1 + tau)] and grow toward the capacity with the
    curve count.  ``lower`` and ``gap`` give the modulus bracket; ``converged``
    also requires that bracket to be certified.
    """
    fam = sample_radial_curves(c, curve_count)
    mod = modulus_lower_bound(fam, p, c.domain)
    cap = solve_capacity(c, p, opts)
    return {
        "modulus": mod.value,
        "lower": mod.lower,
        "gap": (mod.value - mod.lower) / mod.value,
        "capacity": cap.value,
        "ratio": mod.value / cap.value,
        "curve_count": curve_count,
        "admissible_ok": mod.admissible_ok,
        "converged": cap.converged and mod.converged,
        "density": mod.density,
    }
