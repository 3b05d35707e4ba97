"""Projected gradient descent with Barzilai-Borwein steps.

Minimizes a smooth function over a convex set given by a projection
operator.  Steps are projected gradient steps x -> P(x - alpha * g) with the
spectral (BB1) step length, safeguarded by Armijo backtracking along the
projection arc, so the iteration is monotone.  Termination is by relative
decrease of the objective over a trailing window, which is robust for the
flat valleys near a p-Dirichlet minimizer.  The modulus program is its one
caller; capacities are solved by CG and Newton in the capacity module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError


@dataclass(frozen=True)
class DescentOptions:
    max_iter: int = 20000
    rel_tol: float = 1e-9
    stall_window: int = 10
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    step_min: float = 1e-14
    step_max: float = 1e12

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.rel_tol < 0:
            raise DomainError("rel_tol must be nonnegative")
        if self.stall_window < 1:
            raise DomainError("stall_window must be at least 1")
        if not (0 < self.backtrack < 1):
            raise DomainError("backtrack factor must lie in (0, 1)")
        if not (0 < self.armijo_c1 < 1):
            raise DomainError("armijo_c1 must lie in (0, 1)")


@dataclass
class DescentResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    history: list = field(repr=False, default_factory=list)


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
    alpha = min(max(alpha, opts.step_min), opts.step_max)
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
            if f_new <= fx + opts.armijo_c1 * slope:
                break
            step *= opts.backtrack
            if step < opts.step_min:
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
            alpha = step / opts.backtrack
        alpha = min(max(alpha, opts.step_min), opts.step_max)
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        w = opts.stall_window
        if len(history) > w:
            drop = history[-w - 1] - history[-1]
            if drop <= opts.rel_tol * max(abs(history[-1]), 1e-300):
                converged = True
                break
    return DescentResult(x=x, value=fx, iterations=it, converged=converged, history=history)
