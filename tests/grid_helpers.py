"""Test helpers for what the package no longer builds: the whole-grid center array, the cell-to-inside map, the
face list in a solve, and plate masks from a free set and plate values."""

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


def plate_masks(grid, free, plate):
    """(E, F) of the grid's shape from inside-cell arrays: the bool flags ``free`` and the plate values ``plate``.

    E holds the cells off ``free`` where ``plate`` is 0 and F those where it is 1; no other value may sit there.
    """
    assert np.isin(plate[~free], (0.0, 1.0)).all(), "plate values off the free cells must be 0 or 1"
    E, F = np.zeros(grid.cells, dtype=bool), np.zeros(grid.cells, dtype=bool)
    E[grid.mask] = ~free & (plate == 0.0)
    F[grid.mask] = ~free & (plate == 1.0)
    return E, F


def forbid_face_list(monkeypatch):
    """Make every read of ``GridDomain.face_pairs`` raise, until ``monkeypatch`` undoes it."""

    def face_pairs(grid):
        raise AssertionError("the full face list was built")

    monkeypatch.setattr(GridDomain, "face_pairs", property(face_pairs))
