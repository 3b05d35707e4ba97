"""Discrete p-Dirichlet energy on grid domains.

For a scalar field u on the inside cells, each face between inside cells
carries the weighted squared difference quotient w_f ((u_b - u_a)/h)^2, and
each cell collects half of that from every incident face:

    g_c = 1/2 * sum_{faces f at c} w_f ((u_b - u_a)/h)^2

so a face is counted exactly once in sum_c g_c.  The energy is

    E_{p,eps}(u) = sum_c (g_c + eps^2)^(p/2) * h^n,

a smoothed version of the p-Dirichlet integral; eps > 0 keeps it
differentiable where the discrete gradient vanishes.  The face weight is
w_f = 1/theta on the faces a condenser plate's boundary cuts (see
``GridDomain.cut_faces``: the plate value sits at the boundary, theta h
from the free cell's center) and 1 everywhere else, for every p.  For
p = 2, eps = 0 this is the graph energy sum_f w_f (u_b - u_a)^2 * h^(n-2),
and on a grid without plates its gradient is 2 h^n times the negative
5/7-point Laplacian.  The face-split assembly makes the energy exactly
invariant under u -> 1 - u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SingularityError
from .grid import Condenser, GridDomain


@dataclass(frozen=True)
class EnergyParams:
    """Exponent p > 1 and smoothing eps >= 0."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p <= 1:
            raise DomainError(f"energy exponent must satisfy p > 1, got {self.p}")
        if not np.isfinite(self.eps) or self.eps < 0:
            raise DomainError(f"smoothing must satisfy eps >= 0, got {self.eps}")


@dataclass
class ScalarField:
    """Finite values on the inside cells of a grid, in enumeration order."""

    grid: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.inside_count,):
            raise DomainError(
                f"field length {self.values.shape} does not match "
                f"{self.grid.inside_count} inside cells"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    @classmethod
    def from_function(cls, grid: GridDomain, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(grid.inside_centers), dtype=float))

    def to_array(self, fill: float = np.nan) -> np.ndarray:
        """Expand to the full grid shape, ``fill`` outside the domain."""
        out = np.full(self.grid.cells, fill, dtype=float)
        out[self.grid.mask] = self.values
        return out


# Raw-array kernels; the solver calls these in its inner loop.


def _face_diffs(u: np.ndarray, grid: GridDomain) -> np.ndarray:
    a, b = grid.face_pairs
    d = u[b] - u[a]
    d /= grid.h
    return d


def cell_gradient_sq(u: np.ndarray, grid: GridDomain) -> np.ndarray:
    """Per-cell squared gradient g_c (half of each incident face's weighted square)."""
    a, b = grid.face_pairs
    d2 = _face_diffs(u, grid) ** 2
    faces, weights = grid.cut_faces
    d2[faces] *= weights
    m = grid.inside_count
    return 0.5 * (np.bincount(a, weights=d2, minlength=m) + np.bincount(b, weights=d2, minlength=m))


def energy_value(u: np.ndarray, grid: GridDomain, params: EnergyParams) -> float:
    g = cell_gradient_sq(u, grid)
    return float(np.sum((g + params.eps**2) ** (params.p / 2)) * grid.h**grid.n)


def energy_gradient(u: np.ndarray, grid: GridDomain, params: EnergyParams) -> np.ndarray:
    p, eps = params.p, params.eps
    a, b = grid.face_pairs
    if p == 2:
        # The cell weights (p/2) g^((p-2)/2) are all 1: the gradient is linear.
        coef = 2.0 * _face_diffs(u, grid)
    else:
        g = cell_gradient_sq(u, grid) + eps**2
        if p < 2 and np.any(g == 0):
            raise SingularityError(
                "p-energy gradient is singular at zero-gradient cells for p < 2; use eps > 0"
            )
        w = (p / 2) * g ** ((p - 2) / 2)
        coef = w[a] + w[b]
        coef *= _face_diffs(u, grid)
    faces, weights = grid.cut_faces
    coef[faces] *= weights
    coef *= grid.h ** (grid.n - 1)
    m = grid.inside_count
    return np.bincount(b, weights=coef, minlength=m) - np.bincount(a, weights=coef, minlength=m)


def _free_faces(grid: GridDomain, free: np.ndarray):
    """The faces with an end in ``free``, in local cell numbering.

    Returns (la, lb, w, cells): the face ends as positions in ``cells``,
    which lists ``free`` first and then the other cells on those faces, and
    the face weights.
    """
    a, b = grid.face_pairs
    m = grid.inside_count
    is_free = np.zeros(m, dtype=bool)
    is_free[free] = True
    sel = np.flatnonzero(is_free[a] | is_free[b])
    w = np.ones(sel.size)
    faces, weights = grid.cut_faces
    hit = is_free[a[faces]] | is_free[b[faces]]
    w[np.searchsorted(sel, faces[hit])] = weights[hit]
    near = np.zeros(m, dtype=bool)
    near[a[sel]] = True
    near[b[sel]] = True
    near[free] = False
    cells = np.concatenate([free, np.flatnonzero(near)])
    local = np.empty(m, dtype=np.intp)
    local[cells] = np.arange(cells.size)
    return local[a[sel]], local[b[sel]], w, cells


def energy_hessian(u: np.ndarray, grid: GridDomain, params: EnergyParams, free: np.ndarray):
    """Hessian of ``energy_value`` at u on the cells ``free``, matrix-free.

    Returns (apply, diagonal): apply(v) is (H v)[free] for a v that lives on
    ``free`` (zero on every other cell), and diagonal is H's diagonal there.
    With phi(g) = (g + eps^2)^(p/2), d and dv the face difference quotients
    of u and v, and s_c = sum_{faces f at c} w_f d_f dv_f,

        H v = h^(n-1) scatter_f[ w_f ((phi'_a + phi'_b) dv_f + (phi''_a s_a + phi''_b s_b) d_f) ]

    with the b-minus-a scatter of ``energy_gradient``.  Only the faces with
    a free end and the cells on them are kept.  The energy is convex for
    p > 1, so H is positive semidefinite even where phi'' < 0 (p < 2).
    """
    p, h, n = params.p, grid.h, grid.n
    la, lb, w, cells = _free_faces(grid, free)
    g = cell_gradient_sq(u, grid)[cells] + params.eps**2
    d1 = (p / 2) * g ** ((p - 2) / 2)
    d2 = ((p - 2) / 2) * d1 / g
    uc = u[cells]
    wd = w * (uc[lb] - uc[la]) / h
    k1 = h ** (n - 2) * w * (d1[la] + d1[lb])
    # wdh = h^(n-1) w d makes s carry h^(n-1) as well; d2h divides it back out.
    wdh = h ** (n - 1) * wd
    d2h = d2 / h**n
    k, nf = cells.size, free.size
    ext = np.zeros(k)

    def apply(v: np.ndarray) -> np.ndarray:
        ext[:nf] = v
        dv = ext[lb]
        dv -= ext[la]
        t = wdh * dv
        s = np.bincount(la, weights=t, minlength=k)
        s += np.bincount(lb, weights=t, minlength=k)
        s *= d2h
        t = s[la]
        t += s[lb]
        t *= wdh
        dv *= k1
        t += dv
        out = np.bincount(lb, weights=t, minlength=k)[:nf]
        out -= np.bincount(la, weights=t, minlength=k)[:nf]
        return out

    # diag_j = h^(n-2) [sum_f w_f (phi'_a + phi'_b)
    #                   + phi''_j (sum_f +-w_f d_f)^2 + sum_f phi''_other (w_f d_f)^2]
    own = np.bincount(lb, weights=wd, minlength=k) - np.bincount(la, weights=wd, minlength=k)
    wd2 = wd * wd
    diag = np.bincount(la, weights=k1 + h ** (n - 2) * d2[lb] * wd2, minlength=k)
    diag += np.bincount(lb, weights=k1 + h ** (n - 2) * d2[la] * wd2, minlength=k)
    diag += h ** (n - 2) * d2 * own**2
    return apply, diag[:nf]


def quadratic_diagonal(grid: GridDomain) -> np.ndarray:
    """Diagonal of the p = 2 energy's Hessian: 2 h^(n-2) times each cell's summed face weights."""
    a, b = grid.face_pairs
    m = grid.inside_count
    total = np.bincount(a, minlength=m).astype(float)
    total += np.bincount(b, minlength=m)
    faces, weights = grid.cut_faces
    np.add.at(total, a[faces], weights - 1.0)
    np.add.at(total, b[faces], weights - 1.0)
    return 2.0 * grid.h ** (grid.n - 2) * total


# Field-level interface.


def p_energy(u: ScalarField, params: EnergyParams) -> float:
    return energy_value(u.values, u.grid, params)


def p_energy_gradient(u: ScalarField, params: EnergyParams) -> ScalarField:
    """Exact gradient of ``p_energy`` with respect to each cell value.

    Raises SingularityError when eps = 0, p < 2 and some cell has zero
    discrete gradient (the weight (g_c)^{(p-2)/2} blows up there).
    """
    return ScalarField(u.grid, energy_gradient(u.values, u.grid, params))


def project_admissible(u: ScalarField, cond: Condenser) -> ScalarField:
    """Clamp to [0, 1] and pin the plate values: 0 on E, 1 on F."""
    out = np.clip(u.values, 0.0, 1.0)
    out[cond.e_indices] = 0.0
    out[cond.f_indices] = 1.0
    return ScalarField(u.grid, out)
