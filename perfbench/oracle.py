"""Exact minimizer of the p=2 discrete capacity problem.

At p = 2 the public ``energy_gradient`` is linear in the field and does not
depend on eps, so the minimizer over the free cells solves one symmetric
positive definite system.  It is solved matrix-free by conjugate gradients
with ``energy_gradient`` as the operator, so the oracle follows any change to
the discretization behind that function.  The discrete maximum principle
keeps the minimizer inside [0, 1], so the box constraint of the solver is
inactive; the returned violation measures how far CG strays from it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from qcap.energy import EnergyParams, energy_gradient


def p2_oracle(cond) -> tuple[np.ndarray, int, float]:
    """Return (field, CG iterations, box violation) for the condenser at p = 2."""
    grid = cond.domain
    m = grid.inside_count
    fixed = np.zeros(m, dtype=bool)
    fixed[cond.e_indices] = True
    fixed[cond.f_indices] = True
    free = np.flatnonzero(~fixed)
    base = np.zeros(m)
    base[cond.f_indices] = 1.0
    params = EnergyParams(2.0)
    work = np.zeros(m)

    def apply(x):
        work[free] = x
        return energy_gradient(work, grid, params)[free]

    rhs = -energy_gradient(base, grid, params)[free]
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    op = LinearOperator((free.size, free.size), matvec=apply, dtype=float)
    x, info = cg(op, rhs, rtol=1e-12, maxiter=10 * free.size, callback=count)
    if info != 0:
        raise RuntimeError(f"oracle CG did not converge (info={info})")
    u = base.copy()
    u[free] = x
    violation = float(max(0.0, -x.min(), x.max() - 1.0))
    return u, iterations, violation
