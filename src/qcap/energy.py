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
with one value per free cell: ``FreeEnergy``, built once per solve from
the grid-shaped plate masks E and F, finds the free cells and fills in
the plate values itself, and gives the values and derivatives of the
field so made from one pass over the faces that can carry a difference,
and never sweeps the whole grid; it too selects its faces axis by axis,
and builds its index arrays in int32, straight into their final arrays.
Its Newton matrix M is written the same way, each slot value straight
into the CSR data, with no concatenated or gathered slot-sized copy, and
the diagonal's M term is summed per face.  It numbers the free cells red
first, so that H1's red-black coupling B is one block of it, whose CSR
pattern scipy's COO constructor builds once per solve with the face each
slot reads; each set of derivatives gathers B's values from its face
weights.  For p != 2 it also puts each free cell in an aggregate, its
block of ``AGGREGATE`` cells per axis, and each set of derivatives gives
the coarse operator of the Newton CG's two-level preconditioner, the
Galerkin product E = Z^T H1 Z of H1 with that aggregation Z: a
(2n+1)-point stencil on the block grid, built by scipy's ``diags_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .exceptions import DomainError, SingularityError
from .grid import GridDomain

# Slots per chunk of ``FreeEnergy._matrix``.
TAKE_SLOTS = 1 << 14
# Grid cells per axis of a Newton coarse-correction aggregate.
AGGREGATE = 8


def add_product(out: np.ndarray, matrix, x: np.ndarray) -> np.ndarray:
    """out += matrix @ x in place, for a CSR or CSC matrix: the kernel scipy's own product calls, with no new array."""
    getattr(_sparsetools, matrix.format + "_matvec")(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


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


def _red_cells(grid: GridDomain) -> np.ndarray:
    """Flags the inside cells whose index sum i + j (+ k) is even, the red ones; a face joins a red and a black cell.

    The parity is the XOR of the per-axis index parities, broadcast on the grid.
    """
    odd = np.zeros((), dtype=bool)
    for k, c in enumerate(grid.cells):
        odd = odd ^ (np.arange(c) % 2 == 1).reshape([c if j == k else 1 for j in range(grid.n)])
    return ~odd[grid.mask]


class FreeEnergy:
    """Values, gradient and Hessian of ``energy_value`` on one solve's free cells.

    Built once per solve from the grid-shaped plate masks E and F, disjoint
    sets of inside cells like a ``Condenser``'s: the free cells are the
    inside cells on neither, and they and every index array stay the same
    for all the steps of one solve.  ``free`` lists them red first, each
    colour in ascending inside enumeration (one ``_red_cells`` call), so
    that the ``nr`` red cells are x[:nr] and the black ones x[nr:].
    Every route takes a vector x of shape (nf,), one value per free cell in
    ``free`` order, and works on the field that is x on ``free``, 0 on E
    and 1 on F; ``field(x)`` returns that field on the inside cells.  So
    only two kinds of faces can carry a difference, the faces with an end
    in ``free`` and those where E meets F, and only those faces are kept.
    An E-F face has no free end, so it enters no
    derivative: it adds no slot to the Hessian pattern and no entry to
    ``red_black``'s coupling, and leaves grad and diagonal unchanged on the
    free cells.  Local cell numbering lists the ``nf`` free cells first and
    then the other cells on the kept faces; ``cells`` maps it to the inside
    enumeration, ``free`` is its view ``cells[:nf]``, and ``plate`` holds
    their plate values (1 on F, 0 elsewhere): no inside-length array is
    kept.  ``la``, ``lb`` and ``w`` are the faces' ends in local
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
    of a p != 2 solve, on the CSR pattern ``pattern`` of M that the
    constructor builds for p != 2 only.  Its one row per local cell and one
    column per free cell hold one slot per free face end (row the face's
    other end, column the free end) plus one per free cell's diagonal; the
    first ``nf`` rows are the free block.  A row's slots are its up faces
    (column the b end) axis by axis, then its down faces (column the a
    end) axis by axis, each in face order, then its diagonal: the order of
    a stable sort of the slots by row, which ``_pattern`` reaches by
    scattering one group of slots at a time.  ``pattern`` keeps the face
    each slot reads and its sign, and ``_matrix`` writes M's slot values
    straight into its CSR data from per-face values, then the diagonal into
    the last slot of each free row: no [x | y | diagonal] concatenation and
    no slot-sized gathered copy is made.  ``red_black`` and
    ``derivatives`` both give H1's red-by-black block B, one entry per face
    with two free ends, in the row of its red end and the column of its
    black end, on the pattern ``coupling_pattern`` (indptr, indices and the
    face each slot reads) that the constructor builds for every p with
    scipy's COO constructor, given the int32 face ids as values.  Each call
    gathers B's values from its face weights into a new data array: B is
    bit for bit the matrix that constructor builds from the values.

    For p != 2 the constructor also numbers each free cell's aggregate
    once, after B's pattern: ``aggregate`` (intp, one entry per free cell)
    is the row-major index of its block of ``AGGREGATE`` grid cells per
    axis, on the grid of all blocks.  ``coarse_pattern`` lists the faces
    that reach E = Z^T H1 Z, Z the 0/1 matrix of that aggregation, and
    ``derivatives`` fills E from their weights.  A p = 2 solve builds
    neither.
    """

    def __init__(self, grid: GridDomain, E: np.ndarray, F: np.ndarray, params: EnergyParams):
        self.grid, self.F, self.params = grid, F, params
        self.inside_count = grid.inside_count
        # 0 on a free cell, 1 on E, 3 on F and 5 outside: a face's label sum is
        # 2 on E-E, 6 on F-F and at least 5 with an outside end, so the kept
        # faces (a free end, or E-F) are those summing below 5, 2 excepted.
        label = np.zeros(grid.cells, dtype=np.int8)
        label[E] = 1
        label[F] = 3
        label[~grid.mask] = 5
        slices = [(lo, hi) for lo, hi, _ in grid.inside_faces()]
        keeps, near = [], np.zeros(grid.cells, dtype=bool)
        for lo, hi in slices:
            ends = label[lo] + label[hi]
            keeps.append((ends < 5) & (ends != 2))
            near[lo] |= keeps[-1]
            near[hi] |= keeps[-1]
        near &= label != 0
        near = near[grid.mask]
        inner = label[grid.mask]
        del label
        # The free cells red first, each colour in ascending inside enumeration.
        red, black = _red_cells(grid), inner == 0
        red &= black
        black ^= red
        nr = self.nr = int(np.count_nonzero(red))
        nf = self.nf = nr + int(np.count_nonzero(black))
        self.cells = np.empty(nf + np.count_nonzero(near), dtype=np.intp)
        self.cells[:nr] = np.flatnonzero(red)
        self.cells[nr:nf] = np.flatnonzero(black)
        self.cells[nf:] = np.flatnonzero(near)
        self.free = self.cells[:nf]
        self.plate = (inner[self.cells] == 3).astype(float)
        # Each grid-sized array is freed as soon as it is used: the set-up's peak is lowest.
        del red, black, near, inner
        local = np.empty(self.inside_count, dtype=np.int32)
        local[self.cells] = np.arange(self.cells.size, dtype=np.int32)
        index = np.empty(grid.cells, dtype=np.int32)
        index[grid.mask] = local
        del local
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
        self.coupling_pattern = self._coupling_pattern()
        if params.p != 2:
            # Each free cell's aggregate and E's face lists, after B's: the
            # set-up's tracemalloc peak is lowest.
            self.aggregate = self._aggregates()
            self.coarse_pattern = self._coarse_pattern()

    def _aggregates(self) -> np.ndarray:
        """Each free cell's aggregate: the row-major index of its block of ``AGGREGATE`` grid cells per axis.

        Summed axis by axis from broadcast views of the grid, so the largest
        temporary is one inside-length int32 array.  The result is intp,
        which numpy gathers faster with than int32.
        """
        grid = self.grid
        block = np.zeros(self.nf, dtype=np.intp)
        for k, c in enumerate(grid.cells):
            axis = (np.arange(c, dtype=np.int32) // AGGREGATE).reshape([c if j == k else 1 for j in range(grid.n)])
            block *= -(-c // AGGREGATE)
            block += np.broadcast_to(axis, grid.cells)[grid.mask][self.free]
        return block

    def _coarse_pattern(self):
        """(na, empty, bound, own, axes): the int32 face lists of E = Z^T H1 Z on the grid of na blocks.

        ``empty`` lists the blocks with no free cell, ``bound`` the faces
        with one free end and ``own`` that end's block.  ``axes`` holds, per
        axis with more than one block, its block stride, the faces whose
        two free ends lie in different blocks and the block of their lo
        end; the hi end's is one stride on.  H1's other faces add nothing.
        """
        counts = [-(-c // AGGREGATE) for c in self.grid.cells]
        na = math.prod(counts)
        # The block of each local cell, -1 off the free ones.
        ends = np.full(self.cells.size, -1, dtype=np.int32)
        ends[: self.nf] = self.aggregate
        bound, own, axes = [], [], []
        for k, (a, b) in enumerate(zip(self.start[:-1], self.start[1:])):
            ea, eb = ends[self.la[a:b]], ends[self.lb[a:b]]
            faces = np.flatnonzero((ea < 0) != (eb < 0))
            bound.append((faces + a).astype(np.int32))
            own.append(np.maximum(ea[faces], eb[faces]))
            if counts[k] > 1:
                faces = np.flatnonzero((ea != eb) & (ea >= 0) & (eb >= 0))
                axes.append((math.prod(counts[k + 1 :]), (faces + a).astype(np.int32), ea[faces]))
        empty = np.flatnonzero(np.bincount(self.aggregate, minlength=na) == 0)
        return na, empty, np.concatenate(bound), np.concatenate(own), axes

    def _coarse(self, k1: np.ndarray) -> sp.csc_array:
        """E = Z^T H1 Z for H1's face weights k1: a (2n+1)-point stencil on the block grid.

        One ``bincount`` per axis sums k1 over the faces joining each pair
        of blocks into s_k, at the lo block.  E holds -s_k at offsets
        +-stride_k and, on its diagonal, the bound faces' k1 at their block
        plus each s_k at both its blocks; a block with no free cell gets 1,
        as Z^T r is 0 there.  scipy refuses repeated offsets, so axes with
        one block are left out.  E is symmetric: its CSC form is the
        transpose of its CSR form, which ``diags_array`` gives without zeros.
        """
        na, empty, bound, own, axes = self.coarse_pattern
        # float even with no bound face, where bincount gives int64
        diag = np.bincount(own, weights=np.take(k1, bound), minlength=na).astype(float, copy=False)
        diag[empty] = 1.0
        diagonals, offsets = [diag], [0]
        for stride, faces, lo in axes:
            pair = np.bincount(lo, weights=np.take(k1, faces), minlength=na - stride)
            diag[:-stride] += pair
            diag[stride:] += pair
            np.negative(pair, out=pair)
            diagonals += [pair, pair]
            offsets += [stride, -stride]
        return sp.diags_array(diagonals, offsets=offsets, format="csr").T

    def _coupling_pattern(self):
        """(indptr, indices, faces) of B: the CSR layout scipy's COO constructor gives the faces with two free ends.

        Red cells are local cells [0, nr) and black ones [nr, nf), so a face
        with two free ends joins row ``min(la, lb)`` and column
        ``max(la, lb) - nr``; faces[s] is the face whose value slot s takes.
        """
        nf, nr = self.nf, self.nr
        both = self.la < nf
        both &= self.lb < nf
        faces = np.flatnonzero(both).astype(np.int32)
        del both
        la, lb = self.la[faces], self.lb[faces]
        rows = np.minimum(la, lb)
        np.maximum(la, lb, out=la)
        la -= nr
        del lb
        b = sp.csr_array((faces, (rows, la)), shape=(nr, nf - nr))
        return b.indptr, b.indices, b.data

    def _coupling(self, k1: np.ndarray) -> sp.csr_array:
        """B with the value -k1[f] in face f's slot, in a new data array."""
        indptr, indices, faces = self.coupling_pattern
        data = np.take(k1, faces)
        np.negative(data, out=data)
        return sp.csr_array((data, indices, indptr), shape=(self.nr, self.nf - self.nr))

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
        """The inside-cell field: x on ``free``, 1 on F and 0 on E."""
        u = self.F[self.grid.mask].astype(float)
        u[self.free] = x
        return u

    def _diffs(self, x: np.ndarray) -> np.ndarray:
        """u_b - u_a on the kept faces, for u = ``field(x)``.

        An x that does not broadcast to the nf free cells, an inside-cell field among them, raises ValueError.
        """
        uc = self.plate.copy()
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
        every = np.full(self.inside_count, terms[-1])
        every[self.cells] = terms[:-1]
        return float(np.sum(every) * self.grid.h**self.grid.n)

    def _matrix(self, values: np.ndarray, diag: np.ndarray) -> sp.csr_array:
        """M on the pattern, its data written in place.

        Face f's up slot takes values[f], its down slot -values[f], and free
        cell j's diagonal slot, the last of row j, takes diag[j].  The slots
        are read from values ``TAKE_SLOTS`` at a time, so no slot-sized index
        or value copy is made.
        """
        indptr, indices, source, sign = self.pattern
        data = np.empty(indptr[-1])
        if values.size:
            for a in range(0, data.size, TAKE_SLOTS):
                part = slice(a, a + TAKE_SLOTS)
                np.take(values, source[part], out=data[part])
                data[part] *= sign[part]
        data[indptr[1 : self.nf + 1] - 1] = diag
        return sp.csr_array((data, indices, indptr), shape=(self.cells.size, self.nf))

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
        """(grad, apply, diagonal, coupling, coarse) of ``energy_value`` at u = ``field(x)`` on the free cells, for p != 2.

        grad is ``energy_gradient(u)[free]`` bit for bit: the same face
        terms, scattered in the same order.  apply(v) is (H v)[free] for a
        v that lives on the free cells (zero on every other cell), and
        diagonal is H's diagonal there.  With phi(g) = (g + eps^2)^(p/2),
        d and dv the face difference quotients of u and v, and
        s_c = sum_{faces f at c} w_f d_f dv_f,

            H v = h^(n-1) scatter_f[ w_f ((phi'_a + phi'_b) dv_f + (phi''_a s_a + phi''_b s_b) d_f) ]

        with the b-minus-a scatter of ``energy_gradient``.  The first term
        is H1, the graph Laplacian with face weights
        k1_f = h^(n-2) w_f (phi'_a + phi'_b) on the free block; a face joins
        a red and a black cell, so H1 = [[D1_r, B], [B^T, D1_b]] with its
        diagonal D1 and coupling B (entries -k1_f), and H1 v is
        [D1_r v_r + B v_b; B^T v_r + D1_b v_b].  The second is M^T ((phi'' /
        h^n) M v), with M the sparse map from v to the sums s_c (scaled by
        h^(n-1)) on every local cell.  The energy is convex for p > 1, so H
        is positive semidefinite even where phi'' < 0 (p < 2).  diagonal
        adds sum_c (phi''_c / h^n) M_cj^2 to D1, summed per face: each face's
        squared M value times phi''/h^n of its other end, scattered by
        ``bincount`` to its free end, plus phi''_j/h^n own_j^2 for M's
        diagonal entry own_j.  coarse is E = Z^T H1 Z, a CSC matrix with
        one row and column per block of the block grid (``_coarse``).
        apply returns a new array, into which B, B^T and M^T add their
        products in place (``add_product``); M v goes into a buffer every
        call reuses.
        """
        p, h, n = self.params.p, self.grid.h, self.grid.n
        la, lb, nf, nr, k = self.la, self.lb, self.nf, self.nr, self.cells.size
        diff = self._diffs(x)
        g = self._g(diff.copy())[:-1] + self.params.eps**2
        d1 = _phi1(g, p)
        s = d1[la]
        s += d1[lb]
        grad, k1, h1_diag = self._first_order(diff, s)
        del s
        coupling = self._coupling(k1)
        coarse = self._coarse(k1)
        del k1
        # phi'' / h^n in d1's place; g is freed before any slot-sized fill
        d2h = np.multiply(d1, (p - 2) / 2, out=d1)
        d2h /= g
        d2h /= h**n
        del g
        # M's face values h^(n-2) w_f d_f, in place of d_f
        diff *= h ** (n - 2) * self.w
        own = np.bincount(lb, weights=diff, minlength=k)[:nf]
        own -= np.bincount(la, weights=diff, minlength=k)[:nf]
        # diag_j = D1_j + sum_c d2h_c M_cj^2: M's diagonal entry own_j, then each
        # face's value at its b end's column (row a) and at its a end's (row b)
        diag = np.square(own)
        diag *= d2h[:nf]
        diag += h1_diag
        term = d2h[la]
        term *= diff
        term *= diff
        diag += np.bincount(lb, weights=term, minlength=k)[:nf]
        np.take(d2h, lb, out=term)
        term *= diff
        term *= diff
        diag += np.bincount(la, weights=term, minlength=k)[:nf]
        del term
        mv = self._matrix(diff, own)
        del diff, own
        mt, coupling_t = mv.T, coupling.T
        sums = np.empty(k)

        def apply(v: np.ndarray) -> np.ndarray:
            sums.fill(0.0)
            np.multiply(add_product(sums, mv, v), d2h, out=sums)
            out = h1_diag * v
            add_product(out[:nr], coupling, v[nr:])
            add_product(out[nr:], coupling_t, v[:nr])
            return add_product(out, mt, sums)

        return grad, apply, diag, coupling, coarse

    def red_black(self, x: np.ndarray):
        """(grad, diagonal, coupling) of the p = 2 energy at u = ``field(x)`` on the free cells, at any p.

        grad is ``energy_gradient(u)[free]`` at p = 2 bit for bit, and
        diagonal is that of H1, the Hessian at p = 2: the weighted graph
        Laplacian with face weights h^(n-2) 2 w_f, which neither eps nor u
        changes.  No ``cell_gradient_sq`` sweep is made.  A face joins cells
        whose index sums differ by one, so H1 couples only red cells with
        black ones: with the free cells red first, H1 is the block matrix
        [[D_r, B], [B^T, D_b]] with diagonal D_r and D_b, and coupling is
        B: one entry -h^(n-2) 2 w_f per face with two free ends, in the row
        of its red end and the column of its black end.
        """
        grad, k1, diag = self._first_order(self._diffs(x), 2.0)
        return grad, diag, self._coupling(k1)
