"""Test helpers for what the package no longer builds: the whole-grid center array, the cell-to-inside map, and the face list in a solve."""

import numpy as np

from qcap import GridDomain


def all_centers(grid):
    """Centers of all cells of the grid, shape (*cells, n), stacked from its ``axis_centers``."""
    return np.stack(np.broadcast_arrays(*grid.axis_centers()), axis=-1)


def inside_index(grid):
    """An int64 array of the grid's shape: each inside cell's rank in row-major order, -1 outside."""
    idx = np.full(grid.cells, -1, dtype=np.int64)
    idx[grid.mask] = np.arange(grid.inside_count)
    return idx


def forbid_face_list(monkeypatch):
    """Make every read of ``GridDomain.face_pairs`` raise, until ``monkeypatch`` undoes it."""

    def face_pairs(grid):
        raise AssertionError("the full face list was built")

    monkeypatch.setattr(GridDomain, "face_pairs", property(face_pairs))
