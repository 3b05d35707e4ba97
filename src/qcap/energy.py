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

A field is a float array with one value per inside cell, in the grid's
inside enumeration.  ``energy_value`` and ``energy_gradient`` sweep the
whole grid and raise DomainError for a field of any other length.  They
do not check finiteness: the Newton line search rejects a trial step by
its non-finite energy.  A solve moves only its free cells.
``FreeEnergy``, built once per solve, gives the gradient and the Hessian
there in one pass per step over the faces with a free end, and at any p
the red-black blocks of the p = 2 Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError, SingularityError
from .grid import GridDomain


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


def _check_length(u: np.ndarray, grid: GridDomain) -> None:
    if np.shape(u) != (grid.inside_count,):
        raise DomainError(f"field length {np.shape(u)} does not match {grid.inside_count} inside cells")


def energy_value(u: np.ndarray, grid: GridDomain, params: EnergyParams) -> float:
    _check_length(u, grid)
    g = cell_gradient_sq(u, grid)
    return float(np.sum((g + params.eps**2) ** (params.p / 2)) * grid.h**grid.n)


def _phi1(g: np.ndarray, p: float) -> np.ndarray:
    """phi'(g) = (p/2) g^((p-2)/2) per cell, for g = g_c + eps^2."""
    if p < 2 and np.any(g == 0):
        raise SingularityError("p-energy gradient is singular at zero-gradient cells for p < 2; use eps > 0")
    return (p / 2) * g ** ((p - 2) / 2)


def energy_gradient(u: np.ndarray, grid: GridDomain, params: EnergyParams) -> np.ndarray:
    """Gradient of ``energy_value``; SingularityError if eps = 0, p < 2 and some g_c = 0."""
    _check_length(u, grid)
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
    cut face, 1 elsewhere).

    ``derivatives`` fills its matrices on a CSR pattern (``pattern``), built
    once: by the constructor for p != 2, on first use at p = 2.
    ``red_black`` serves the p = 2 solve that starts every solve, at any
    ``params.p``, from the face arrays alone: a face joins cells whose index
    sums i + j (+ k) differ by one, so under that parity H1 couples only red
    (even) cells with black (odd) ones, and its red-black block comes from
    the faces with two free ends.  A p = 2 solve never builds the pattern.
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
        self.la, self.lb = local[a[sel]], local[b[sel]]
        self.nf = free.size
        if params.p != 2:
            # Every Newton step fills it; built before the solve's other arrays, it leaves the peak RSS lowest.
            _ = self.pattern

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR pattern (indptr, indices, source) of the Hessian's matrices.

        One row per local cell and one column per free cell, and one slot
        per free face end (row the face's other end, column the free end)
        plus one per free cell's diagonal; its first ``nf`` rows are the
        free block.  Slot s takes its value from [x | y | diagonal][source[s]],
        for a per-face array x read where the column is the face's b end, one
        y read where it is the a end, and a per-free-cell diagonal.
        """
        la, lb, nf = self.la, self.lb, self.nf
        nface = la.size
        slot_face = np.arange(nface, dtype=np.int32)
        up, down = lb < nf, la < nf
        diag = np.arange(nf, dtype=np.int32)
        rows = np.concatenate([la[up], lb[down], diag])
        cols = np.concatenate([lb[up], la[down], diag])
        source = np.concatenate([slot_face[up], nface + slot_face[down], 2 * nface + diag])
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.cells.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.cells.size), out=indptr[1:])
        return indptr, cols[order], source[order]

    def _matrix(self, x: np.ndarray, y: np.ndarray, diag: np.ndarray, rows: int) -> sp.csr_array:
        """The first ``rows`` rows of the pattern, filled from x, y and diag."""
        indptr, indices, source = self.pattern
        end = indptr[rows]
        data = np.concatenate([x, y, diag])[source[:end]]
        return sp.csr_array((data, indices[:end], indptr[: rows + 1]), shape=(rows, self.nf))

    def _first_order(self, u: np.ndarray, p: float):
        """(grad, k1, diag, phi''-terms) at u: the gradient on the free cells,
        H1's face weights k1 and its diagonal, and for p != 2 the tuple
        (g, phi', h^(n-2) w d) on the local cells and faces (None at p = 2).
        """
        h, n = self.grid.h, self.grid.n
        la, lb, nf, k = self.la, self.lb, self.nf, self.cells.size
        uc = u[self.cells]
        diff = uc[lb] - uc[la]
        if p == 2:
            coef = 2.0 * (diff / h)
            second = None
        else:
            g = cell_gradient_sq(u, self.grid)[self.cells] + self.params.eps**2
            d1 = _phi1(g, p)
            second = g, d1, h ** (n - 2) * self.w * diff
            coef = d1[la] + d1[lb]
            coef *= diff / h
        coef *= self.w
        coef *= h ** (n - 1)
        grad = np.bincount(lb, weights=coef, minlength=k)[:nf] - np.bincount(la, weights=coef, minlength=k)[:nf]
        # Freed before the matrix fill, which would otherwise set the solve's peak memory.
        del uc, diff, coef
        k1 = h ** (n - 2) * self.w * (2.0 if p == 2 else second[1][la] + second[1][lb])
        diag = np.bincount(la, weights=k1, minlength=k)[:nf]
        diag += np.bincount(lb, weights=k1, minlength=k)[:nf]
        return grad, k1, diag, second

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
        grad, k1, diag, second = self._first_order(u, p)
        h1 = self._matrix(-k1, -k1, diag, nf)
        if p == 2:
            return grad, h1.dot, diag
        del k1
        g, d1, wdh = second
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

    def red_black(self, u: np.ndarray):
        """(grad, diagonal, coupling, red) of the p = 2 energy at u on the free cells.

        grad and diagonal are those of a p = 2 ``derivatives``.  red flags
        the free cells whose index sum i + j (+ k) is even.  With the free
        cells split into red and black, each in free order, H1 is the block
        matrix [[D_r, B], [B^T, D_b]] with diagonal D_r and D_b, and
        coupling is B: one entry -h^(n-2) 2 w_f per face with two free ends,
        in the row of its red end and the column of its black end.
        """
        grad, k1, diag, _ = self._first_order(u, 2.0)
        grid, nf = self.grid, self.nf
        odd = np.zeros(grid.cells, dtype=bool)
        for k, c in enumerate(grid.cells):
            odd ^= (np.arange(c) % 2 == 1).reshape([c if j == k else 1 for j in range(grid.n)])
        red = ~odd[grid.mask][self.cells[:nf]]
        order = np.empty(nf, dtype=np.int32)
        nr = int(np.count_nonzero(red))
        order[red] = np.arange(nr, dtype=np.int32)
        order[~red] = np.arange(nf - nr, dtype=np.int32)
        both = np.flatnonzero((self.la < nf) & (self.lb < nf))
        la, lb = self.la[both], self.lb[both]
        a_red = red[la]
        rows = order[np.where(a_red, la, lb)]
        cols = order[np.where(a_red, lb, la)]
        coupling = sp.csr_array((-k1[both], (rows, cols)), shape=(nr, nf - nr))
        return grad, diag, coupling, red
