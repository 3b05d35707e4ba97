"""Projected gradient descent with Barzilai-Borwein steps.

Minimizes a smooth function over a convex set given by a projection
operator.  Steps are projected gradient steps x -> P(x - alpha * g) with the
spectral (BB1) step length, safeguarded by Armijo backtracking along the
projection arc, so the iteration is monotone.  Termination is by relative
decrease of the objective over a trailing window.  Its one caller in the
package is the Lagrange dual of the sampled modulus program (``modulus``);
capacities are solved by CG and Newton in the capacity module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError


# Stagnation window (iterations), Armijo sufficient-decrease constant,
# backtracking factor, and the clamp on the BB step length.
STALL_WINDOW = 10
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
STEP_MIN = 1e-14
STEP_MAX = 1e12


@dataclass(frozen=True)
class DescentOptions:
    max_iter: int = 20000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.rel_tol < 0:
            raise DomainError("rel_tol must be nonnegative")


@dataclass
class DescentResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool


def minimize_projected(f, grad, project, x0, options: DescentOptions | None = None) -> DescentResult:
    """Monotone projected BB descent of ``f`` starting from ``x0``.

    ``project`` must map onto the feasible set; ``x0`` is projected first.
    Returns the best iterate found; ``converged`` reports whether the
    stagnation test fired before the iteration cap.
    """
    opts = options or DescentOptions()
    x = project(np.asarray(x0, dtype=float))
    fx = f(x)
    if not np.isfinite(fx):
        raise DomainError("objective is not finite at the initial point")
    g = grad(x)
    history = [fx]
    alpha = 1.0 / max(float(np.linalg.norm(g, np.inf)), 1e-12)
    alpha = min(max(alpha, STEP_MIN), STEP_MAX)
    converged = False
    it = 0
    for it in range(1, opts.max_iter + 1):
        # Backtrack along the projection arc until sufficient decrease.
        step = alpha
        while True:
            x_new = project(x - step * g)
            s = x_new - x
            slope = float(np.dot(g, s))
            if slope >= 0 or not s.any():
                # Stationary: the projected gradient step makes no progress.
                x_new = x
                f_new = fx
                break
            f_new = f(x_new)
            if f_new <= fx + ARMIJO_C1 * slope:
                break
            step *= BACKTRACK
            if step < STEP_MIN:
                x_new = x
                f_new = fx
                break
        if x_new is x:
            converged = True
            break
        g_new = grad(x_new)
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 0:
            alpha = float(np.dot(s, s)) / sy
        else:
            alpha = step / BACKTRACK
        alpha = min(max(alpha, STEP_MIN), STEP_MAX)
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if len(history) > STALL_WINDOW:
            drop = history[-STALL_WINDOW - 1] - history[-1]
            if drop <= opts.rel_tol * max(abs(history[-1]), 1e-300):
                converged = True
                break
    return DescentResult(x=x, value=fx, iterations=it, converged=converged)
