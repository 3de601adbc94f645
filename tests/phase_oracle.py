"""The scalar phase oracle of the tests: frac(k*x) in exact integer
arithmetic, the reference that zroot5.frac_phases and the FB characters are
checked against."""

import math

from combsplit.zroot5 import FourierModulePoint, QuadraticInt

# sqrt(5) to 40 decimal digits, held as the integer floor(sqrt(5) * 10^40).
_PHASE_DIGITS = 40
_PHASE_SCALE = 10**_PHASE_DIGITS
_SQRT5_SCALED = math.isqrt(5 * _PHASE_SCALE * _PHASE_SCALE)
_PHASE_DENOM = 10 * _PHASE_SCALE


def frac_phase(k: FourierModulePoint, x: QuadraticInt) -> float:
    """Fractional part of k*x in [0, 1), to absolute error below 1e-12.

    With A + B*tau = (a + b*tau)(m + n*tau), the product k*x equals
    ((2A + B)*sqrt(5) + 5B) / 10.  The fractional part is taken with
    sqrt(5) held to 40 decimal digits in pure integer arithmetic, so the
    result is reliable even when the head term is of order 1e18.  This is
    the scalar reference for frac_phases.
    """
    a, b, m, n = k.a, k.b, x.m, x.n
    A = a * m + b * n
    B = a * n + b * m + b * n
    num = (2 * A + B) * _SQRT5_SCALED + 5 * B * _PHASE_SCALE
    return (num % _PHASE_DENOM) / _PHASE_DENOM
