"""Bound-constrained minimization over x >= 0 by scipy's L-BFGS-B.

Its one caller in the package is the Lagrange dual of the sampled modulus
program (``modulus``); capacities are solved by CG and Newton in the
capacity module.  The module and the name ``minimize_projected`` are kept
because the benchmark's tracer patches that name in ``qcap.modulus`` and
``qcap.capacity`` and reads ``.iterations`` off the result; they can go
once the tracer no longer looks them up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# L-BFGS-B stopping tolerances and memory (Byrd, Lu, Nocedal, Zhu, SIAM J.
# Sci. Comput. 16 (1995)).
FTOL = 1e-15
GTOL = 1e-12
MAXCOR = 20


@dataclass
class DescentResult:
    x: np.ndarray
    value: float
    iterations: int


def minimize_projected(fun, x0) -> DescentResult:
    """Minimize ``fun`` over x >= 0 from ``x0``.

    ``fun(x)`` returns the value and the gradient together.  The result is
    the last iterate, whatever the optimizer's exit reason; callers certify
    it themselves.
    """
    # Imported here: scipy.optimize adds about 13 MB of resident memory and
    # 0.15 s to the import of qcap, and only the modulus program needs it.
    from scipy.optimize import Bounds, minimize

    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=Bounds(0.0, np.inf),
        options={"ftol": FTOL, "gtol": GTOL, "maxcor": MAXCOR},
    )
    return DescentResult(x=res.x, value=float(res.fun), iterations=int(res.nit))
