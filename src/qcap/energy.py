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

A solve moves only its free cells.  ``FreeEnergy``, built once per solve,
gives the gradient and the Hessian there in one pass per step over the
faces with a free end; ``energy_value`` stays a sweep of the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def _phi1(g: np.ndarray, p: float) -> np.ndarray:
    """phi'(g) = (p/2) g^((p-2)/2) per cell, for g = g_c + eps^2."""
    if p < 2 and np.any(g == 0):
        raise SingularityError("p-energy gradient is singular at zero-gradient cells for p < 2; use eps > 0")
    return (p / 2) * g ** ((p - 2) / 2)


def energy_gradient(u: np.ndarray, grid: GridDomain, params: EnergyParams) -> np.ndarray:
    p, eps = params.p, params.eps
    a, b = grid.face_pairs
    if p == 2:
        # The cell weights (p/2) g^((p-2)/2) are all 1: the gradient is linear.
        coef = 2.0 * _face_diffs(u, grid)
    else:
        w = _phi1(cell_gradient_sq(u, grid) + eps**2, p)
        coef = w[a] + w[b]
        coef *= _face_diffs(u, grid)
    faces, weights = grid.cut_faces
    coef[faces] *= weights
    coef *= grid.h ** (grid.n - 1)
    m = grid.inside_count
    return np.bincount(b, weights=coef, minlength=m) - np.bincount(a, weights=coef, minlength=m)


class FreeEnergy:
    """Gradient and Hessian of ``energy_value`` on one solve's free cells.

    Built once per solve: the free set, and with it every index array,
    stays the same for all the steps of one solve.  Only the faces with an
    end in ``free`` enter these derivatives.  Local cell numbering lists
    the ``nf`` free cells first and then the other cells on those faces;
    ``cells`` maps it to the inside enumeration.  ``la``, ``lb`` and ``w``
    are the faces' ends in local numbering and their weights (1/theta on a
    cut face, 1 elsewhere).  The CSR pattern (``indptr``, ``indices``) has
    one row per local cell and one column per free cell, and one slot per
    free face end (row the face's other end, column the free end) plus one
    per free cell's diagonal; its first ``nf`` rows are the free block.
    Slot s takes its value from [x | y | diagonal][source[s]], for a
    per-face array x read where the column is the face's b end, one y read
    where it is the a end, and a per-free-cell diagonal.
    """

    def __init__(self, grid: GridDomain, free: np.ndarray, params: EnergyParams):
        self.grid, self.params = grid, params
        a, b = grid.face_pairs
        m = grid.inside_count
        is_free = np.zeros(m, dtype=bool)
        is_free[free] = True
        sel = np.flatnonzero(is_free[a] | is_free[b])
        self.w = np.ones(sel.size)
        faces, weights = grid.cut_faces
        hit = is_free[a[faces]] | is_free[b[faces]]
        self.w[np.searchsorted(sel, faces[hit])] = weights[hit]
        near = np.zeros(m, dtype=bool)
        near[a[sel]] = True
        near[b[sel]] = True
        near[free] = False
        self.cells = np.concatenate([free, np.flatnonzero(near)])
        local = np.empty(m, dtype=np.int32)
        local[self.cells] = np.arange(self.cells.size, dtype=np.int32)
        la, lb = self.la, self.lb = local[a[sel]], local[b[sel]]
        nf = self.nf = free.size
        nface = sel.size
        slot_face = np.arange(nface, dtype=np.int32)
        up, down = lb < nf, la < nf
        diag = np.arange(nf, dtype=np.int32)
        rows = np.concatenate([la[up], lb[down], diag])
        cols = np.concatenate([lb[up], la[down], diag])
        source = np.concatenate([slot_face[up], nface + slot_face[down], 2 * nface + diag])
        order = np.argsort(rows, kind="stable")
        self.indptr = np.zeros(self.cells.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.cells.size), out=self.indptr[1:])
        self.indices, self.source = cols[order], source[order]

    def _matrix(self, x: np.ndarray, y: np.ndarray, diag: np.ndarray, rows: int) -> sp.csr_array:
        """The first ``rows`` rows of the pattern, filled from x, y and diag."""
        end = self.indptr[rows]
        data = np.concatenate([x, y, diag])[self.source[:end]]
        return sp.csr_array((data, self.indices[:end], self.indptr[: rows + 1]), shape=(rows, self.nf))

    def derivatives(self, u: np.ndarray):
        """(grad, apply, diagonal) of ``energy_value`` at u on the free cells.

        grad is ``energy_gradient(u)[free]`` bit for bit: the same face
        terms, scattered in the same order.  apply(v) is (H v)[free] for a
        v that lives on the free cells (zero on every other cell), and
        diagonal is H's diagonal there.  With phi(g) = (g + eps^2)^(p/2),
        d and dv the face difference quotients of u and v, and
        s_c = sum_{faces f at c} w_f d_f dv_f,

            H v = h^(n-1) scatter_f[ w_f ((phi'_a + phi'_b) dv_f + (phi''_a s_a + phi''_b s_b) d_f) ]

        with the b-minus-a scatter of ``energy_gradient``.  Both terms are
        sparse matrices on the pattern: H1, the graph Laplacian with face
        weights h^(n-2) w_f (phi'_a + phi'_b), on the free block, and M, the
        map from v to the sums s_c (scaled by h^(n-1)) on every local cell,
        so that H v = H1 v + M^T ((phi'' / h^n) M v).  The energy is convex
        for p > 1, so H is positive semidefinite even where phi'' < 0
        (p < 2).  At p = 2, phi'' = 0 for every eps and phi' = 1, so H = H1
        is the constant weighted graph Laplacian; neither g nor M is built
        there, which keeps H finite at eps = 0 where g vanishes.  For p != 2
        one full-grid ``cell_gradient_sq`` gives g on the local cells.
        """
        p, h, n = self.params.p, self.grid.h, self.grid.n
        la, lb, nf, k = self.la, self.lb, self.nf, self.cells.size
        uc = u[self.cells]
        diff = uc[lb] - uc[la]
        if p == 2:
            coef = 2.0 * (diff / h)
        else:
            g = cell_gradient_sq(u, self.grid)[self.cells] + self.params.eps**2
            d1 = _phi1(g, p)
            wdh = h ** (n - 2) * self.w * diff
            coef = d1[la] + d1[lb]
            coef *= diff / h
        coef *= self.w
        coef *= h ** (n - 1)
        grad = np.bincount(lb, weights=coef, minlength=k)[:nf] - np.bincount(la, weights=coef, minlength=k)[:nf]
        # Freed before the matrix fill, which would otherwise set the p = 2 solve's peak memory.
        del uc, diff, coef
        k1 = h ** (n - 2) * self.w * (2.0 if p == 2 else d1[la] + d1[lb])
        diag = np.bincount(la, weights=k1, minlength=k)[:nf]
        diag += np.bincount(lb, weights=k1, minlength=k)[:nf]
        h1 = self._matrix(-k1, -k1, diag, nf)
        if p == 2:
            return grad, h1.dot, diag
        del k1
        own = np.bincount(lb, weights=wdh, minlength=k)[:nf]
        own -= np.bincount(la, weights=wdh, minlength=k)[:nf]
        mv = self._matrix(wdh, -wdh, own, k)
        d2h = ((p - 2) / 2) * d1 / g / h**n
        mt = mv.T
        # diag_j = H1_jj + sum_c d2h_c M_cj^2
        diag = diag + sp.csr_array((mv.data**2, mv.indices, mv.indptr), shape=mv.shape).T @ d2h

        def apply(v: np.ndarray) -> np.ndarray:
            s = mv @ v
            s *= d2h
            out = h1 @ v
            out += mt @ s
            return out

        return grad, apply, diag


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
