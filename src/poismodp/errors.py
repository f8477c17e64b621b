"""Exception types shared across the package, and the engines' size limits."""

from dataclasses import dataclass


class PoisError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeModulus(PoisError):
    pass


class ModulusMismatch(PoisError):
    pass


class ArityMismatch(PoisError):
    pass


class ZeroInverse(PoisError, ZeroDivisionError):
    pass


class ZeroDivisor(PoisError, ZeroDivisionError):
    pass


class ZeroInput(PoisError):
    pass


class ZeroElement(PoisError):
    pass


class IndexOutOfRange(PoisError, IndexError):
    pass


class ParseError(PoisError, ValueError):
    pass


class NotSkewSymmetric(PoisError):
    pass


class WrongArity(PoisError):
    pass


class JacobiViolation(PoisError):
    pass


class NotGraded(PoisError):
    pass


class NotPoissonDerivation(PoisError):
    pass


class NotAlphaDerivation(PoisError):
    pass


class NotNormal(PoisError):
    pass


class SmallCharacteristic(PoisError):
    pass


class AlreadyUnimodular(PoisError):
    pass


class SearchSpaceTooLarge(PoisError):
    pass


class DegreeBoundTooLarge(PoisError):
    pass


class CapExceeded(PoisError):
    pass


class ModulusTooLarge(PoisError):
    """The modulus is too large for exact int64 arithmetic."""


class InternalCheckFailed(PoisError):
    """A self-check on a computed answer failed: a bug, not a bad input."""


@dataclass(frozen=True)
class Limits:
    """How far the bounded engines may go: matrix columns per solve,
    candidates per search, and vectors in a materialized kernel."""

    columns: int = 5000
    candidates: int = 10**7
    kernel: int = 10**6

    def check(self, field: str, count: int, what: str) -> None:
        """Raise the field's error if count exceeds its limit."""
        limit = getattr(self, field)
        if count > limit:
            raise _LIMIT_ERRORS[field](f"{count} {what}, cap is {limit}")


_LIMIT_ERRORS = {"columns": DegreeBoundTooLarge, "candidates": SearchSpaceTooLarge,
                 "kernel": CapExceeded}


def require_prime(p):
    """Reject non-prime moduli; the whole library assumes F_p.  A modulus
    with (p-1)^2 >= 2^63, which no structure accepts, is rejected before
    trial division, so that takes at most about 55 000 steps."""
    if not isinstance(p, int) or p < 2:
        raise NonPrimeModulus(f"modulus must be a prime >= 2, got {p!r}")
    if (p - 1) ** 2 >= 2**63:
        raise ModulusTooLarge(f"p={p}: (p-1)^2 must be below 2^63")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise NonPrimeModulus(f"modulus {p} is not prime")
        d += 1
