"""Exact arithmetic in Z[tau] for tau the golden ratio, tau^2 = tau + 1.

Elements are stored as integer pairs (m, n) meaning m + n*tau.  The Galois
conjugation swaps tau with 1 - tau (equivalently sqrt(5) with -sqrt(5)); it
is the map that sends a physical-space coordinate to its internal-space
image.  Plain integers live here too, as pairs with n = 0, so lattice
systems share the same key space.

Python integers are arbitrary precision, so ring operations can never
overflow silently; products of desk-scale coordinates stay exact.  The
array paths (sign_of on int64 arrays, frac_phases) are exact inside stated
bounds and raise ValueError outside them instead of wrapping.
"""

from __future__ import annotations

import math
from functools import total_ordering

import numpy as np

__all__ = [
    "TAU",
    "TAU_STAR",
    "SQRT5",
    "QuadraticInt",
    "FourierModulePoint",
    "sign_of",
    "SIGN_ARRAY_BOUND",
    "embed_array",
    "frac_phase",
    "frac_phases",
    "PHASE_KEY_BOUND",
    "PHASE_K_BOUND",
]

SQRT5: float = math.sqrt(5.0)
TAU: float = (1.0 + SQRT5) / 2.0
TAU_STAR: float = (1.0 - SQRT5) / 2.0

# sqrt(5) to 40 decimal digits, held as the integer floor(sqrt(5) * 10^40).
# This drives the scalar phase path; the float constants above are only
# used for embeddings and coarse bounds.
_PHASE_DIGITS = 40
_PHASE_SCALE = 10**_PHASE_DIGITS
_SQRT5_SCALED = math.isqrt(5 * _PHASE_SCALE * _PHASE_SCALE)
_PHASE_DENOM = 10 * _PHASE_SCALE


# Array signs square |2m + n| and |n|; below this bound 5*n^2 and u^2 stay
# far inside int64, so the comparison is exact.
SIGN_ARRAY_BOUND = 2**30

# frac_phases takes keys with |m|, |n| < PHASE_KEY_BOUND (the key encoder's
# bound) and module points with |a|, |b| < PHASE_K_BOUND.  Then |2A + B| =
# |m(2a + b) + n(a + 3b)| < 2^31 * 2^17 = 2^48: inside int64, and small
# enough that no phase rounds to 1.0 (see frac_phases).
PHASE_KEY_BOUND = 2**31
PHASE_K_BOUND = 2**14
_M128 = (1 << 128) - 1


def sign_of(m, n):
    """Exact sign of m + n*tau, computed with integer arithmetic only.

    Python ints give a Python int and are exact at any size.  int64 arrays
    give an int64 array of signs, elementwise; they are exact while every
    |2m + n| and |n| stays below SIGN_ARRAY_BOUND, and a ValueError is
    raised beyond it instead of wrapping.
    """
    if isinstance(m, np.ndarray) or isinstance(n, np.ndarray):
        return _sign_of_array(m, n)
    # 2(m + n*tau) = (2m + n) + n*sqrt(5)
    u = 2 * m + n
    if n >= 0 and u >= 0:
        return 0 if (n == 0 and u == 0) else 1
    if n <= 0 and u <= 0:
        return -1
    # u and n have opposite signs; compare u^2 with 5 n^2.
    d = u * u - 5 * n * n
    if u > 0:
        return 1 if d > 0 else (-1 if d < 0 else 0)
    return -1 if d > 0 else (1 if d < 0 else 0)


def _sign_of_array(m, n) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    # |m| >= bound with |n| < bound forces |2m + n| > bound, so checking m
    # and n first is no stricter and keeps 2m + n from wrapping
    bound = SIGN_ARRAY_BOUND
    if not (_below(m, bound) and _below(n, bound) and _below(u := 2 * m + n, bound)):
        raise ValueError(
            f"sign_of: |n| or |2m + n| reaches {SIGN_ARRAY_BOUND} in an int64 array"
        )
    su, sn = np.sign(u), np.sign(n)
    # equal signs (or a zero) decide at once; otherwise compare u^2 with 5 n^2
    return np.where(su * sn >= 0, np.sign(su + sn), su * np.sign(u * u - 5 * n * n))


def _below(x: np.ndarray, bound: int) -> bool:
    return not np.any((x <= -bound) | (x >= bound))


@total_ordering
class QuadraticInt:
    """An element m + n*tau of Z[tau]."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int = 0) -> None:
        self.m = int(m)
        self.n = int(n)

    def __repr__(self) -> str:
        return f"QuadraticInt({self.m}, {self.n})"

    def __str__(self) -> str:
        return f"{self.m}{self.n:+}τ"

    def __hash__(self) -> int:
        return hash((self.m, self.n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.m == other and self.n == 0
        if isinstance(other, QuadraticInt):
            return self.m == other.m and self.n == other.n
        return NotImplemented

    def __lt__(self, other: "QuadraticInt | int") -> bool:
        if isinstance(other, int):
            other = QuadraticInt(other, 0)
        return sign_of(self.m - other.m, self.n - other.n) < 0

    def __neg__(self) -> "QuadraticInt":
        return QuadraticInt(-self.m, -self.n)

    def __add__(self, other: "QuadraticInt | int") -> "QuadraticInt":
        if isinstance(other, int):
            return QuadraticInt(self.m + other, self.n)
        if isinstance(other, QuadraticInt):
            return QuadraticInt(self.m + other.m, self.n + other.n)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "QuadraticInt | int") -> "QuadraticInt":
        return self + (-other if isinstance(other, QuadraticInt) else -other)

    def __rsub__(self, other: "QuadraticInt | int") -> "QuadraticInt":
        return (-self) + other

    def __mul__(self, other: "QuadraticInt | int") -> "QuadraticInt":
        if isinstance(other, int):
            return QuadraticInt(self.m * other, self.n * other)
        if isinstance(other, QuadraticInt):
            # (m1 + n1 t)(m2 + n2 t) with t^2 = t + 1
            return QuadraticInt(
                self.m * other.m + self.n * other.n,
                self.m * other.n + self.n * other.m + self.n * other.n,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QuadraticInt":
        if k < 0:
            raise ValueError("negative powers are not in Z[tau]")
        out = QuadraticInt(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def star(self) -> "QuadraticInt":
        """Galois conjugate: m + n*tau maps to (m + n) - n*tau."""
        return QuadraticInt(self.m + self.n, -self.n)

    def embed(self) -> float:
        """Physical embedding m + n*tau in double precision."""
        return self.m + self.n * TAU

    def embed_star(self) -> float:
        """Internal embedding m + n*(1 - tau) in double precision."""
        return self.m + self.n * TAU_STAR

    def key(self) -> tuple[int, int]:
        return (self.m, self.n)

    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0


class FourierModulePoint:
    """A point k = (a + b*tau)/sqrt(5) of the Fourier module.

    These are exactly the wave numbers at which Dirac combs over Z[tau]
    carry sharp Fourier-Bohr amplitudes.  The star image follows the
    convention that conjugation sends 1/sqrt(5) to -1/sqrt(5).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        self.a = int(a)
        self.b = int(b)

    def __repr__(self) -> str:
        return f"FourierModulePoint({self.a}, {self.b})"

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FourierModulePoint):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __neg__(self) -> "FourierModulePoint":
        return FourierModulePoint(-self.a, -self.b)

    def value(self) -> float:
        """The real wave number (a + b*tau)/sqrt(5)."""
        return (self.a + self.b * TAU) / SQRT5

    def star_value(self) -> float:
        """The internal-space wave number -(a + b*(1 - tau))/sqrt(5)."""
        return -(self.a + self.b * TAU_STAR) / SQRT5

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


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


def frac_phases(k: FourierModulePoint, ms, ns) -> np.ndarray:
    """frac_phase(k, m + n*tau) over paired int64 arrays (or lists) ms, ns.

    Exact modular fixed-point arithmetic: k*x = m*k + n*(k*tau), so
    frac(k*x) = frac(m*F1 + n*F2) with F1 = frac(k), F2 = frac(k*tau).  Both
    are held once per k as 128-bit fractions (floored, from math.isqrt), and
    m*F1 + n*F2 is formed mod 2^128 from 32-bit halves on uint64 arrays,
    where every product fits and wrapping is exact modular arithmetic.  The
    128-bit result differs from frac(k*x) by less than (|m| + |n|) * 2^-128
    < 2^-96, and it is converted to the correctly rounded double, so each
    phase is within half an ulp plus 2^-96 of frac(k*x).

    When q = 2A + B = 0, k*x = B/2 = -A is an integer and the phase is
    exactly 0.0.  Otherwise k*x = (q*sqrt(5) + 5B)/10 lies |q*sqrt(5) - p|/10
    from the nearest integer for some integer p with |q*sqrt(5) - p| <= 5,
    and since sqrt(5) is badly approximable, |q*sqrt(5) - p| =
    |5q^2 - p^2| / |q*sqrt(5) + p| >= 1 / (4.5|q| + 5).  With |q| < 2^48
    (see PHASE_K_BOUND), k*x stays more than 2^-54 from every integer: far
    outside the 2^-96 error, and never close enough to 1 to round to 1.0.

    Raises ValueError when some |m| or |n| reaches PHASE_KEY_BOUND, or |a| or
    |b| reaches PHASE_K_BOUND, instead of wrapping.
    """
    a, b = k.a, k.b
    try:
        m = np.asarray(ms, dtype=np.int64)
        n = np.asarray(ns, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"frac_phases: keys beyond int64: {exc}") from None
    if not (_below(m, PHASE_KEY_BOUND) and _below(n, PHASE_KEY_BOUND)):
        raise ValueError(f"frac_phases: |m| or |n| reaches {PHASE_KEY_BOUND}")
    if max(abs(a), abs(b)) >= PHASE_K_BOUND:
        raise ValueError(f"frac_phases: |a| or |b| of {k} reaches {PHASE_K_BOUND}")
    # k = ((2a + b)*sqrt(5) + 5b)/10 and k*tau = ((a + 3b)*sqrt(5) + 5(a + b))/10
    f1, f2 = _fixed_frac(2 * a + b, b), _fixed_frac(a + 3 * b, a + b)
    # m + 2^31 lies in [1, 2^32); the offset comes back as one constant
    offset = np.uint64(PHASE_KEY_BOUND)
    hi1, lo1 = _mul_frac(m.view(np.uint64) + offset, f1)
    hi2, lo2 = _mul_frac(n.view(np.uint64) + offset, f2)
    hi, lo = _add128(hi1, lo1, hi2, lo2)
    shift = -PHASE_KEY_BOUND * (f1 + f2) & _M128
    hi, lo = _add128(hi, lo, np.uint64(shift >> 64), np.uint64(shift & (2**64 - 1)))
    out = _unit_double(hi, lo)
    out[m * (2 * a + b) + n * (a + 3 * b) == 0] = 0.0
    return out


def _fixed_frac(c: int, d: int) -> int:
    """floor(2^128 * frac((c*sqrt(5) + 5d) / 10)) for integers c, d."""
    root = math.isqrt(5 * c * c << 256)  # floor(|c| * sqrt(5) * 2^128)
    if c < 0:
        root = -root - 1  # |c| sqrt(5) is irrational, so the floor is this
    return (root + (5 * d << 128)) // 10 & _M128


def _mul_frac(u: np.ndarray, f: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) words of u * f mod 2^128 for uint64 u < 2^32, f < 2^128."""
    f_lo = f & (2**64 - 1)
    p0 = u * np.uint64(f_lo & 0xFFFFFFFF)
    p1 = u * np.uint64(f_lo >> 32)
    lo = p0 + (p1 << np.uint64(32))
    hi = (p1 >> np.uint64(32)) + (lo < p0) + u * np.uint64(f >> 64)
    return hi, lo


def _add128(hi1, lo1, hi2, lo2) -> tuple[np.ndarray, np.ndarray]:
    lo = lo1 + lo2
    return hi1 + hi2 + (lo < lo1), lo


def _unit_double(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Correctly rounded doubles of (hi * 2^64 + lo) / 2^128."""
    # With hi >= 2^54 the rounding bit of hi lies above bit 0, so folding
    # every bit of lo into bit 0 (a sticky bit) lets one conversion round
    # right.  Values below 2^-10 take exact Python-int division instead.
    out = (hi | (lo != 0)).astype(np.float64) * 2.0**-64
    for i in np.flatnonzero(hi < np.uint64(2**54)).tolist():
        out[i] = (int(hi[i]) << 64 | int(lo[i])) / 2**128
    return out


def embed_array(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized physical embedding of (m, n) coordinate arrays."""
    return m.astype(np.float64) + n.astype(np.float64) * TAU
