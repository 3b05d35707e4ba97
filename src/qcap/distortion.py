"""Numeric verification of the capacitory distortion inequalities.

Direct inequality: for a weak (p,q)-quasiconformal mapping phi from the
source domain Omega onto the image domain and any condenser (E, F) in the
image,

    cp_q^{1/q}(phi^{-1}E, phi^{-1}F; Omega)  <=  K_{p,q}(phi; Omega) * cp_p^{1/p}(E, F; image).

Dual inequality: inside the exponent window n < q <= p < (n-1)^2/(n-2) the
inverse mapping is weakly (q', p')-quasiconformal for the dual exponents
p' = p/(p-n+1), q' = q/(q-n+1), so the direct inequality applied to
phi^{-1} at the exponents (q', p') gives for source condensers (F0, F1)

    cp_{p'}^{1/p'}(phi F0, phi F1; image)  <=  K_{q',p'}(phi^{-1}; image) * cp_{q'}^{1/q'}(F0, F1; Omega).

The dual check is therefore the direct check of phi^{-1}, run after the
window test.

Both sides carry independent discretization error, so a verification passes
when lhs, K and rhs are finite and slack = rhs - lhs >= -budget with
budget = tau * (lhs + rhs).  The default tau of 0.05 can be re-measured
against the ring closed forms with ``calibrate_discretization``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import SolverOptions, solve_capacity
from .exceptions import DomainError
from .exponents import ExponentPair, check_dual_window, dual_exponents
from .grid import Condenser, GridDomain
from .mappings import distortion_coefficient, pullback_condenser

DEFAULT_TAU = 0.05


def check_tau(tau: float) -> None:
    """DomainError unless 0 < tau < inf, the range of a budget's relative tolerance."""
    if not 0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")


@dataclass
class DistortionReport:
    """One verified inequality: lhs <= rhs_K * rhs_cap up to the budget."""

    lhs: float
    rhs_K: float
    rhs_cap: float
    slack: float
    passed: bool
    discretization_budget: float
    converged: bool

    @property
    def rhs(self) -> float:
        return self.rhs_K * self.rhs_cap


def verify_capacity_inequality(
    m,
    c_image: Condenser,
    p: float,
    q: float,
    source_grid: GridDomain,
    opts: SolverOptions | None = None,
    tau: float = DEFAULT_TAU,
) -> DistortionReport:
    """Check the direct inequality for an image condenser and its pullback.

    The image grid is the condenser's own domain; ``source_grid`` hosts the
    pulled-back condenser and the distortion quadrature.  ``converged``
    also needs a finite K, and ``passed`` a finite K, lhs and rhs: an
    overflowing quotient gives an inf or NaN K, and with K = inf slack and
    budget are both inf, which would pass any lhs.  Raises DomainError unless
    1 < q <= p, the grids share the dimension and 0 < tau < inf.
    """
    ExponentPair(source_grid.n, p, q)  # DomainError unless 1 < q <= p
    if source_grid.n != c_image.domain.n:
        raise DomainError("source and image grids must share the dimension")
    check_tau(tau)
    c_source = pullback_condenser(m, c_image, source_grid)
    lhs_res = solve_capacity(c_source, q, opts)
    rhs_res = solve_capacity(c_image, p, opts)
    k = distortion_coefficient(m, source_grid, p, q)
    lhs = lhs_res.value ** (1.0 / q)
    rhs_cap = rhs_res.value ** (1.0 / p)
    rhs = k.value * rhs_cap
    budget = tau * (lhs + rhs)
    slack = rhs - lhs
    finite = all(math.isfinite(v) for v in (k.value, lhs, rhs))
    return DistortionReport(
        lhs=lhs,
        rhs_K=k.value,
        rhs_cap=rhs_cap,
        slack=slack,
        passed=finite and bool(slack >= -budget),
        discretization_budget=budget,
        converged=lhs_res.converged and rhs_res.converged and math.isfinite(k.value),
    )


def verify_dual_inequality(
    m,
    c_source: Condenser,
    p: float,
    q: float,
    image_grid: GridDomain,
    opts: SolverOptions | None = None,
    tau: float = DEFAULT_TAU,
) -> DistortionReport:
    """Check the dual inequality: the direct check of ``m.inverse()`` with
    ``c_source`` as the image condenser, ``image_grid`` as its source grid and
    the dual exponents (q', p') in the roles of (p, q).

    Raises DomainError unless 1 < q <= p and 0 < tau < inf, and WindowError
    unless n < q <= p < (n-1)^2/(n-2); at n = 2 the window is empty.
    """
    pair = ExponentPair(c_source.domain.n, p, q)
    check_dual_window(pair)
    p_dual, q_dual = dual_exponents(pair)
    return verify_capacity_inequality(m.inverse(), c_source, q_dual, p_dual, image_grid, opts, tau)
