"""Exception types shared across the package, and its one integer check.

Every integer that reaches the package from outside (a size, seed, count,
frequency, edge id or pixel size, from a caller or a JSON document) goes
through ``integer``: ``bool`` and every non-integral value (floats,
strings, ``None``) raise ``ValueError`` naming the field, never truncated
or parsed, and numpy integers come back as Python ``int``.
"""

import numbers


def integer(value, what: str) -> int:
    """``value`` as a Python ``int`` if it is an integer; ``bool`` and any
    other value raise ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class EulerPartError(Exception):
    """Base class for all package-specific errors."""


class InvariantViolation(EulerPartError):
    """An exact structural identity failed.

    These identities are integer equalities with no tolerance; a violation
    means either a malformed input slipped past validation or a genuine bug.
    """


class ResolutionError(EulerPartError):
    """A sample landed on (or numerically too close to) the zero set."""

    def __init__(self, message, n=None, n_bad=None):
        super().__init__(message)
        self.n = n
        self.n_bad = n_bad


class InstabilityError(EulerPartError):
    """Grid refinement did not reach agreement within the allowed levels."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class SymmetryError(EulerPartError):
    """Function does not satisfy the required symmetry or boundary condition."""


class CutError(EulerPartError):
    """Proposed cut path violates an admissibility condition."""
