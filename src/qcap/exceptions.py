"""Exception types shared across the package, and the integer and finiteness rules behind its DomainErrors."""

import math
import numbers


def _is_integer(x) -> bool:
    """True for a value of an integer type, numpy's included, and False for a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class QcapError(Exception):
    """Base class for package-specific errors."""


class DomainError(QcapError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GeometryError(QcapError):
    """A geometric construction failed (empty or merged plates, bad shells, ...)."""


class EmptySetError(QcapError):
    """An operation that requires a nonempty cell set received an empty one."""


class SingularityError(QcapError):
    """The unregularized energy gradient was requested at a singular configuration."""


class DegenerateError(QcapError):
    """Too large a fraction of the domain carries a degenerate Jacobian."""


class WindowError(QcapError):
    """Exponents fall outside the validity window of the requested check."""


def _finite(values, what: str) -> tuple:
    """``values`` as a tuple of floats; DomainError unless every one is finite."""
    out = tuple(float(v) for v in values)
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{what} must be finite, got {out}")
    return out
