"""Exceptions shared across the package.

Every failure mode of the exact-arithmetic pipeline has its own class so
callers (and the verification harness) can tell a formula misuse apart
from a genuine bug.
"""

from __future__ import annotations


class TripleHodgeError(Exception):
    """Base class for all package errors."""


class NonDivisible(TripleHodgeError):
    """Exact polynomial division left a nonzero remainder.

    Carries the remainder so the caller can inspect what failed to cancel.
    Raised either by a bug or by evaluating a formula outside its domain
    (for instance at a critical parameter value).
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NonIntegral(TripleHodgeError):
    """A half-integer coefficient survived an averaged (1/2) formula."""


class OrderTooLow(TripleHodgeError):
    """A series coefficient beyond the stored truncation order was requested."""


class DegeneratePoles(TripleHodgeError):
    """Residue closed form called with coincident pole arguments."""


class ParityError(TripleHodgeError):
    """A wall-crossing routine received an index of the wrong parity."""


class StrataMismatch(TripleHodgeError):
    """The six-strata sum disagrees with the closed wall-crossing term."""


class CriticalSigma(TripleHodgeError):
    """The stability parameter sits exactly on a critical value."""

    def __init__(self, message, criticals=None):
        super().__init__(message)
        self.criticals = list(criticals) if criticals is not None else []


class NotCritical(TripleHodgeError):
    """A critical-locus routine received a parameter that is not critical."""


class OutOfRange(TripleHodgeError, ValueError):
    """A request parameter is outside its admissible range."""
