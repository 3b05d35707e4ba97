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
its non-finite energy.  They sweep the field axis by axis on the shifted
slices of ``GridDomain.inside_faces``, and each cell adds its face terms
in the order of a ``bincount`` over the face list ``GridDomain.face_pairs``.
A solve moves only its free cells, and works on vectors x
with one value per free cell: ``FreeEnergy``, built once per solve, fills
in the plate values itself and gives the values and derivatives of the
field so made from one pass over the faces that can carry a difference,
and never sweeps the whole grid; it too selects its faces axis by axis,
and builds its index arrays in int32, straight into their final arrays.
Its Newton matrices are written the same way, each slot value straight
into the CSR data, with no concatenated, gathered or squared slot-sized
copy; its red-black coupling comes from scipy's COO constructor, given
only the values and ends of the faces with two free ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError, SingularityError
from .grid import GridDomain

# Slots per chunk of ``FreeEnergy._matrix``, and rows per chunk of
# ``_square_sums`` (at most 7 * 2^12 slots, in 3D).
TAKE_SLOTS = 1 << 14
SQUARE_ROWS = 1 << 12


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


def _face_sums(u: np.ndarray, grid: GridDomain, w=None):
    """(A, B) on the grid: per cell, the sums of u's face terms over the faces it is the lo end of, and the hi end of.

    Per axis of ``inside_faces``, d = (u[hi] - u[lo]) / h, 0.0 off ``both``, gives d^2 (w None) or w_f d,
    w_f = w or w[lo] + w[hi] (w on the grid); then the cut weights, and h^(n-1) if w is given.  A cell
    ends at most one face per axis on each side: it adds its terms in ``face_pairs`` order, plus 0.0s.
    """
    full = np.zeros(grid.cells)
    full[grid.mask] = u
    lo_sum, hi_sum = np.zeros(grid.cells), np.zeros(grid.cells)
    for (lo, hi, both), (flat, weights) in zip(grid.inside_faces(), grid.cut_faces):
        t = np.subtract(full[hi], full[lo], out=np.zeros(both.shape), where=both)
        t /= grid.h
        if w is None:
            np.square(t, out=t)
        else:
            np.multiply(t, w if np.ndim(w) == 0 else w[lo] + w[hi], out=t, where=both)
        t.reshape(-1)[flat] *= weights
        if w is not None:
            t *= grid.h ** (grid.n - 1)
        lo_sum[lo] += t
        hi_sum[hi] += t
    return lo_sum, hi_sum


def cell_gradient_sq(u: np.ndarray, grid: GridDomain) -> np.ndarray:
    """Per-cell squared gradient g_c (half of each incident face's weighted square)."""
    lo_sum, hi_sum = _face_sums(u, grid)
    return 0.5 * (lo_sum + hi_sum)[grid.mask]


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
    # At p = 2 the cell weights (p/2) g^((p-2)/2) are all 1: the gradient is linear.
    w = 2.0
    if p != 2:
        w = np.zeros(grid.cells)
        w[grid.mask] = _phi1(cell_gradient_sq(u, grid) + eps**2, p)
    lo_sum, hi_sum = _face_sums(u, grid, w)
    hi_sum -= lo_sum
    return hi_sum[grid.mask]


class FreeEnergy:
    """Values, gradient and Hessian of ``energy_value`` on one solve's free cells.

    Built once per solve: the free set, and with it every index array,
    stays the same for all the steps of one solve.  ``free`` lists the
    free cells in ascending inside enumeration, as a solve builds it;
    ``base`` is the plate field, 0 on the plate E and 1 on the plate F.
    Every route takes a vector x of shape (nf,), one value per free cell in
    ``free`` order, and works on the field that is x on ``free`` and
    ``base`` elsewhere; ``field(x)`` returns that field on the inside
    cells.  So only two kinds of faces can carry a difference, the faces
    with an end in ``free`` and those where E meets F, and only those
    faces are kept.  An E-F face has no free end, so it enters no
    derivative: it adds no slot to the Hessian pattern and no entry to
    ``red_black``'s coupling, and leaves grad and diagonal unchanged on the
    free cells.  Local cell numbering lists the ``nf`` free cells first and
    then the other cells on the kept faces; ``cells`` maps it to the inside
    enumeration.  ``la``, ``lb`` and ``w`` are the faces' ends in local
    numbering and their weights (1/theta on a cut face, 1 elsewhere).  The
    kept faces are found axis by axis, by shifted slices of a grid-shaped
    label array (``GridDomain.inside_faces``), and listed in ``face_pairs``
    order; axis k's are [start[k], start[k + 1]).  The set-up marks them,
    and their ends that are not free, on grid-shaped bool arrays, numbers
    the local cells through one int32 grid map, and writes each axis's ends
    from that map into the preallocated int32 ``la`` and ``lb``; the flat
    indices of an axis's kept faces serve only to look up its
    ``cut_faces`` weights.

    Three routes, one per job, on one pass over the kept faces, ``_diffs``,
    and ``_g``, which sums g from it.  ``value`` gives the energy.  ``red_black``
    gives every p = 2 quantity, at any ``params.p``: the p = 2 solve that
    starts every solve runs on it.  ``derivatives`` gives the Newton steps
    of a p != 2 solve, on the CSR pattern ``pattern`` that the constructor
    builds for p != 2 only.  Its one row per local cell and one column per
    free cell hold one slot per free face end (row the face's other end,
    column the free end) plus one per free cell's diagonal; the first
    ``nf`` rows are the free block.  A row's slots are its up faces
    (column the b end) axis by axis, then its down faces (column the a
    end) axis by axis, each in face order, then its diagonal: the order of
    a stable sort of the slots by row, which ``_pattern`` reaches by
    scattering one group of slots at a time.  ``pattern`` keeps the face
    each slot reads and its sign, and ``_matrix`` writes the slot values of
    H1 and M straight into their CSR data from per-face values, then the
    diagonal into the last slot of each free row: no [x | y | diagonal]
    concatenation and no slot-sized gathered copy is made.  ``red_black``
    builds its coupling with scipy's COO constructor once the face-sized
    weights are dropped.
    """

    def __init__(self, grid: GridDomain, free: np.ndarray, base: np.ndarray, params: EnergyParams):
        self.grid, self.free, self.base, self.params = grid, free, base, params
        # 0 on a free cell, 1 on E, 3 on F and 5 outside: a face's label sum is
        # 2 on E-E, 6 on F-F and at least 5 with an outside end, so the kept
        # faces (a free end, or E-F) are those summing below 5, 2 excepted.
        label = np.full(grid.cells, 5, dtype=np.int8)
        inner = (1 + 2 * base).astype(np.int8)
        inner[free] = 0
        label[grid.mask] = inner
        slices = [(lo, hi) for lo, hi, _ in grid.inside_faces()]
        keeps, near = [], np.zeros(grid.cells, dtype=bool)
        for lo, hi in slices:
            ends = label[lo] + label[hi]
            keeps.append((ends < 5) & (ends != 2))
            near[lo] |= keeps[-1]
            near[hi] |= keeps[-1]
        near &= label != 0
        near = near[grid.mask]
        nf = self.nf = free.size
        self.cells = np.empty(nf + np.count_nonzero(near), dtype=np.intp)
        self.cells[:nf] = free
        self.cells[nf:] = np.flatnonzero(near)
        local = np.empty(grid.inside_count, dtype=np.int32)
        local[self.cells] = np.arange(self.cells.size, dtype=np.int32)
        index = np.empty(grid.cells, dtype=np.int32)
        index[grid.mask] = local
        # Each grid-sized array is freed as soon as it is used: the set-up's peak is lowest.
        del label, inner, near, local
        # la, lb and w written axis by axis into their final arrays; axis k's
        # faces are [start[k], start[k + 1]).
        start = self.start = np.cumsum([0] + [np.count_nonzero(keep) for keep in keeps])
        self.la, self.lb = np.empty(start[-1], dtype=np.int32), np.empty(start[-1], dtype=np.int32)
        self.w = np.ones(start[-1])
        for axis, ((lo, hi), (flat, weights)) in enumerate(zip(slices, grid.cut_faces)):
            keep, part = keeps[axis], slice(start[axis], start[axis + 1])
            self.la[part] = index[lo][keep]
            self.lb[part] = index[hi][keep]
            cut = keep.reshape(-1)[flat]
            self.w[part][np.searchsorted(np.flatnonzero(keep), flat[cut])] = weights[cut]
            keeps[axis] = None
        del index
        if params.p != 2:
            # The (indptr, indices, source, sign) CSR pattern.  Every Newton step
            # fills it; built before the solve's other arrays, it leaves the
            # peak RSS lowest.
            self.pattern = self._pattern()

    def _slot_groups(self):
        """(rows, cols, side, faces) of each group of pattern slots, in the slots' order within a row.

        The up slots (side 0: column the b end) axis by axis, then the down
        slots (side 1: column the a end) axis by axis, each one slot per
        face of ``faces`` whose column end is free, then the diagonal (side
        2, faces None).  A cell ends at most one face of an axis on each
        side, so a group meets each row at most once.
        """
        for side, (rows, cols) in enumerate(((self.la, self.lb), (self.lb, self.la))):
            for a, b in zip(self.start[:-1], self.start[1:]):
                faces = np.flatnonzero(cols[a:b] < self.nf)
                faces += a
                yield rows[faces], cols[faces], side, faces
        diag = np.arange(self.nf, dtype=np.int32)
        yield diag, diag, 2, None

    def _pattern(self):
        """(indptr, indices, source, sign), each slot group scattered in turn into its rows' next free slots.

        That is the slot order of a stable sort of the slots by row, with no
        sort; scipy's COO constructor would sort each row's columns instead.
        Each row's diagonal slot is its last.  source[s] is the face whose
        value slot s takes (0 on the diagonal), and sign[s] is -1 on a down
        slot and 1 elsewhere.
        """
        indptr = np.zeros(self.cells.size + 1, dtype=np.int32)
        count = indptr[1:]
        for rows, *_ in self._slot_groups():
            count[rows] += 1
        np.cumsum(indptr, out=indptr)
        indices = np.empty(indptr[-1], dtype=np.int32)
        source = np.zeros_like(indices)
        sign = np.ones(indptr[-1], dtype=np.int8)
        fill = indptr[:-1].copy()
        for rows, cols, side, faces in self._slot_groups():
            at = fill[rows]
            indices[at] = cols
            if faces is not None:
                source[at] = faces
            if side == 1:
                sign[at] = -1
            fill[rows] += 1
        return indptr, indices, source, sign

    def field(self, x: np.ndarray) -> np.ndarray:
        """The inside-cell field: x on ``free`` and ``base`` elsewhere."""
        u = self.base.copy()
        u[self.free] = x
        return u

    def _diffs(self, x: np.ndarray) -> np.ndarray:
        """u_b - u_a on the kept faces, for u = ``field(x)``.

        An x that does not broadcast to the nf free cells, an inside-cell field among them, raises ValueError.
        """
        uc = self.base[self.cells]
        uc[: self.nf] = x
        d = uc[self.lb]
        d -= uc[self.la]
        return d

    def _g(self, d: np.ndarray) -> np.ndarray:
        """g summed in face order from the differences d of ``_diffs``, which it overwrites, plus one slot.

        A dropped face adds exactly 0.0: g is ``cell_gradient_sq(field(x))`` on the
        local cells bit for bit, and 0.0 in the slot, which no face reaches.
        """
        d /= self.grid.h
        d **= 2
        d *= self.w
        k = self.cells.size + 1
        return 0.5 * (np.bincount(self.la, weights=d, minlength=k) + np.bincount(self.lb, weights=d, minlength=k))

    def value(self, x: np.ndarray, p: float | None = None) -> float:
        """``energy_value(field(x))`` bit for bit, at ``params.p`` or at p.

        The terms (g + eps^2)^(p/2) fill the inside enumeration, each cell off
        the local ones with that of the g = 0.0 slot, and are summed as there.
        """
        p = self.params.p if p is None else p
        terms = (self._g(self._diffs(x)) + self.params.eps**2) ** (p / 2)
        every = np.full(self.grid.inside_count, terms[-1])
        every[self.cells] = terms[:-1]
        return float(np.sum(every) * self.grid.h**self.grid.n)

    def _matrix(self, values: np.ndarray, diag: np.ndarray, rows: int, flip: bool = False) -> sp.csr_array:
        """The first ``rows`` rows of the pattern, its data written in place.

        Face f's up slot takes values[f], its down slot values[f], or
        -values[f] with ``flip``, and free cell j's diagonal slot, the last
        of row j, takes diag[j].  The slots are read from values
        ``TAKE_SLOTS`` at a time, so no slot-sized index or value copy is made.
        """
        indptr, indices, source, sign = self.pattern
        end = indptr[rows]
        source, data = source[:end], np.empty(end)
        if values.size:
            for a in range(0, end, TAKE_SLOTS):
                part = slice(a, a + TAKE_SLOTS)
                np.take(values, source[part], out=data[part])
                if flip:
                    data[part] *= sign[part]
        data[indptr[1 : self.nf + 1] - 1] = diag
        return sp.csr_array((data, indices[:end], indptr[: rows + 1]), shape=(rows, self.nf))

    def _first_order(self, diff: np.ndarray, s):
        """(grad, k1, diag) from ``_diffs`` and the per-face sum s = phi'_a + phi'_b (2.0 at p = 2):
        the gradient on the free cells, H1's face weights k1 and its diagonal.
        """
        h, n = self.grid.h, self.grid.n
        la, lb, nf, k = self.la, self.lb, self.nf, self.cells.size
        coef = diff / h
        coef *= s
        coef *= self.w
        coef *= h ** (n - 1)
        grad = np.bincount(lb, weights=coef, minlength=k)[:nf] - np.bincount(la, weights=coef, minlength=k)[:nf]
        del coef
        k1 = h ** (n - 2) * self.w
        k1 *= s
        diag = np.bincount(la, weights=k1, minlength=k)[:nf]
        diag += np.bincount(lb, weights=k1, minlength=k)[:nf]
        return grad, k1, diag

    def derivatives(self, x: np.ndarray):
        """(grad, apply, diagonal) of ``energy_value`` at u = ``field(x)`` on the free cells, for p != 2.

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
        (p < 2).
        """
        p, h, n = self.params.p, self.grid.h, self.grid.n
        la, lb, nf, k = self.la, self.lb, self.nf, self.cells.size
        diff = self._diffs(x)
        g = self._g(diff.copy())[:-1] + self.params.eps**2
        d1 = _phi1(g, p)
        s = d1[la]
        s += d1[lb]
        grad, k1, diag = self._first_order(diff, s)
        del s
        h1 = self._matrix(np.negative(k1, out=k1), diag, nf)
        del k1  # H1 holds its slot values: freed before M is filled
        # M's face values h^(n-2) w_f d_f, in place of d_f
        diff *= h ** (n - 2) * self.w
        own = np.bincount(lb, weights=diff, minlength=k)[:nf]
        own -= np.bincount(la, weights=diff, minlength=k)[:nf]
        mv = self._matrix(diff, own, k, flip=True)
        del diff
        d2h = ((p - 2) / 2) * d1 / g / h**n
        mt = mv.T
        # diag_j = H1_jj + sum_c d2h_c M_cj^2
        diag += _square_sums(mv, d2h)

        def apply(v: np.ndarray) -> np.ndarray:
            s = mv @ v
            s *= d2h
            out = h1 @ v
            out += mt @ s
            return out

        return grad, apply, diag

    def red_black(self, x: np.ndarray):
        """(grad, diagonal, coupling, red) of the p = 2 energy at u = ``field(x)`` on the free cells, at any p.

        grad is ``energy_gradient(u)[free]`` at p = 2 bit for bit, and
        diagonal is that of H1, the Hessian at p = 2: the weighted graph
        Laplacian with face weights h^(n-2) 2 w_f, which neither eps nor u
        changes.  No ``cell_gradient_sq`` sweep is made.  red flags the
        free cells whose index sum i + j (+ k) is even.  A face joins cells
        whose index sums differ by one, so H1 couples only red cells with
        black ones: with the free cells split into red and black, each in
        free order, H1 is the block matrix [[D_r, B], [B^T, D_b]] with
        diagonal D_r and D_b, and coupling is B: one entry -h^(n-2) 2 w_f
        per face with two free ends, in the row of its red end and the
        column of its black end.
        """
        grad, k1, diag = self._first_order(self._diffs(x), 2.0)
        grid, nf = self.grid, self.nf
        both = self.la < nf
        both &= self.lb < nf
        values = k1[both]
        del k1
        np.negative(values, out=values)
        # the parity of i + j (+ k): the XOR of the per-axis index parities
        odd = np.zeros((), dtype=bool)
        for k, c in enumerate(grid.cells):
            odd = odd ^ (np.arange(c) % 2 == 1).reshape([c if j == k else 1 for j in range(grid.n)])
        red = ~odd[grid.mask][self.free]
        order = np.empty(nf, dtype=np.int32)
        nr = int(np.count_nonzero(red))
        order[red] = np.arange(nr, dtype=np.int32)
        order[~red] = np.arange(nf - nr, dtype=np.int32)
        la, lb = self.la[both], self.lb[both]
        del both
        a_red = red[la]
        rows = order[np.where(a_red, la, lb)]
        cols = order[np.where(a_red, lb, la)]
        del la, lb, a_red, order
        coupling = sp.csr_array((values, (rows, cols)), shape=(nr, nf - nr))
        return grad, diag, coupling, red


def _square_sums(m: sp.csr_array, weights: np.ndarray) -> np.ndarray:
    """sum_c weights_c m_cj^2 for each column j, with no squared copy of m.

    Each column sums its terms from 0.0 in slot order, as the CSC product
    of m's squared data with weights does (scipy's ``csc_matvec``); the
    terms are formed in chunks of ``SQUARE_ROWS`` rows and added by the
    unbuffered, in-order ``np.add.at``.
    """
    out = np.zeros(m.shape[1])
    indptr = m.indptr
    for lo in range(0, m.shape[0], SQUARE_ROWS):
        hi = min(lo + SQUARE_ROWS, m.shape[0])
        part = slice(indptr[lo], indptr[hi])
        terms = np.square(m.data[part])
        terms *= np.repeat(weights[lo:hi], np.diff(indptr[lo : hi + 1]))
        np.add.at(out, m.indices[part], terms)
    return out
