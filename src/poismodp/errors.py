"""Exception types shared across the package."""


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


class DegreeOverflow(PoisError, OverflowError):
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


class NotGradedDegreeZero(PoisError):
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


class InternalCheckFailed(PoisError):
    """A self-check on a computed answer failed: a bug, not a bad input."""


def require_prime(p):
    """Reject non-prime moduli; the whole library assumes F_p."""
    if not isinstance(p, int) or p < 2:
        raise NonPrimeModulus(f"modulus must be a prime >= 2, got {p!r}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise NonPrimeModulus(f"modulus {p} is not prime")
        d += 1
