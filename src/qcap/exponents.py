"""Exponent arithmetic for weak (p,q)-quasiconformal mappings.

Classifies an exponent pair (p, q) in dimension n against the validity
windows used throughout the package, and computes the dual exponents
p' = p/(p-n+1), q' = q/(q-n+1) that link the distortion of a mapping to
the distortion of its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .exceptions import DomainError, WindowError, _is_integer


class WindowClass(Enum):
    """Mutually exclusive exponent windows.

    SUB_DIMENSIONAL   n-1 < q <= p < n   (boundary-extension window)
    QUASICONFORMAL    p = q = n
    SUPER_DIMENSIONAL n < q <= p < (n-1)^2/(n-2)   (dual-inequality window)
    OUT_OF_WINDOW     everything else, including all window endpoints
    """

    SUB_DIMENSIONAL = "sub_dimensional"
    QUASICONFORMAL = "quasiconformal"
    SUPER_DIMENSIONAL = "super_dimensional"
    OUT_OF_WINDOW = "out_of_window"


@dataclass(frozen=True)
class ExponentPair:
    """Dimension n >= 2 together with exponents 1 < q <= p < inf."""

    n: int
    p: float
    q: float

    def __post_init__(self) -> None:
        if not _is_integer(self.n) or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n}")
        if not (1.0 < self.q <= self.p):
            raise DomainError(f"exponents must satisfy 1 < q <= p, got q={self.q}, p={self.p}")
        if not self.p < math.inf:
            raise DomainError(f"exponent p must be finite, got p={self.p}")


def super_window_upper_bound(n: int) -> float | None:
    """Upper endpoint (n-1)^2/(n-2) of the super-dimensional window.

    Returns None for n = 2, where the window is empty.
    """
    if n <= 2:
        return None
    return (n - 1) ** 2 / (n - 2)


def classify_window(e: ExponentPair) -> WindowClass:
    """Classify (n, p, q) into its exponent window.

    All window inequalities are strict where written strict; endpoint values
    classify as OUT_OF_WINDOW.  Comparisons are exact floating comparisons:
    the inputs are user-chosen constants, not computed quantities.
    """
    n, p, q = e.n, e.p, e.q
    if n - 1 < q <= p < n:
        return WindowClass.SUB_DIMENSIONAL
    if p == n and q == n:
        return WindowClass.QUASICONFORMAL
    bound = super_window_upper_bound(n)
    if bound is not None and n < q <= p < bound:
        return WindowClass.SUPER_DIMENSIONAL
    return WindowClass.OUT_OF_WINDOW


def check_dual_window(e: ExponentPair) -> None:
    """WindowError unless n < q <= p < (n-1)^2/(n-2), the window of the dual inequality."""
    if classify_window(e) is not WindowClass.SUPER_DIMENSIONAL:
        raise WindowError(f"need n < q <= p < (n-1)^2/(n-2), empty at n = 2; got n={e.n}, p={e.p}, q={e.q}")


def dual_exponent(n: int, t: float) -> float:
    """The dual exponent t' = t/(t-n+1), defined for t > n-1.

    For n = 2 this is the Holder conjugate t/(t-1), a decreasing involution
    of (1, inf).  For n > 2 the map sends (n-1, inf) onto (1, inf)
    decreasingly but is not an involution: applying it twice gives
    t/(t(2-n) + (n-1)^2), which returns t only in dimension 2.
    """
    if t <= n - 1:
        raise DomainError(f"dual exponent requires t > n-1 = {n - 1}, got t={t}")
    return t / (t - n + 1)


def dual_exponents(e: ExponentPair) -> tuple[float, float]:
    """Dual pair (p', q') = (p/(p-n+1), q/(q-n+1)).

    Requires p, q > n-1.  Because the map reverses order, q <= p gives
    p' <= q'; and p < (n-1)^2/(n-2) guarantees p' > n-1, so the dual pair
    lands back in the admissible range.
    """
    return dual_exponent(e.n, e.p), dual_exponent(e.n, e.q)
