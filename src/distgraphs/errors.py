"""Exception types shared across the package, and the reader of the
`DISTGRAPHS_MAX_*` environment caps, whose bad values are config errors.

Names mirror the failure labels used throughout the API docs; everything
derives from DistGraphsError so callers can catch broadly.
"""

import os


class DistGraphsError(Exception):
    pass


class NotOddPrime(DistGraphsError, ValueError):
    """Field characteristic must be an odd prime."""


class InvalidDegree(DistGraphsError, ValueError):
    """Extension degree must be a positive integer."""


class SpecMismatch(DistGraphsError, ValueError):
    """Operands belong to different fields."""


class DivisionByZero(DistGraphsError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class TooSmall(DistGraphsError, ValueError):
    """Graph constructor parameter below its minimum."""


class NotBipartite(DistGraphsError, ValueError):
    """Operation requires a bipartite graph."""


class NoEdges(DistGraphsError, ValueError):
    """Operation requires a graph with at least one edge."""


class BudgetExceeded(DistGraphsError, RuntimeError):
    """Search node budget exhausted before a definite answer.

    Deliberately distinct from a negative answer: absence must be a
    proof, never a timeout.
    """


class TooLarge(DistGraphsError, ValueError):
    """Enumeration request exceeds the configured cap."""


class InexactTransform(DistGraphsError, ArithmeticError):
    """A floating-point transform failed its exact-integer rounding guard."""


class SizeTooLarge(DistGraphsError, ValueError):
    """Requested sample size exceeds the ambient space."""


class DimensionTooSmall(DistGraphsError, ValueError):
    """Operation requires ambient dimension >= 2."""


class EmptyPattern(DistGraphsError, ValueError):
    """Extremal numbers are undefined for patterns without edges."""


class DegenerateFit(DistGraphsError, RuntimeError):
    """Log-log slope fit impossible (an edge count is zero)."""


class BadDimension(DistGraphsError, ValueError):
    """Threshold arithmetic requires dimension >= 2."""


class ConfigError(DistGraphsError, ValueError):
    """Invalid experiment configuration."""


def env_cap(name: str, default: int) -> int:
    """The nonnegative integer in environment variable `name`, or
    `default` when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    if not raw.strip().isdecimal():
        raise ConfigError(f"{name} must be a nonnegative integer, got {raw!r}")
    try:
        return int(raw)
    except ValueError:  # past the interpreter's limit on digits read as an int
        raise ConfigError(f"{name} has {len(raw.strip())} digits, too many to read as an integer") from None
