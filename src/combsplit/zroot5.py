"""Exact arithmetic in Z[tau] for tau the golden ratio, tau^2 = tau + 1.

Elements are stored as integer pairs (m, n) meaning m + n*tau.  The Galois
conjugation swaps tau with 1 - tau (equivalently sqrt(5) with -sqrt(5)); it
is the map that sends a physical-space coordinate to its internal-space
image.  Plain integers live here too, as pairs with n = 0, so lattice
systems share the same key space.

Python integers are arbitrary precision, so ring operations can never
overflow silently; products of desk-scale coordinates stay exact.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterable

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
    "embed_star_array",
    "frac_phase",
]

SQRT5: float = math.sqrt(5.0)
TAU: float = (1.0 + SQRT5) / 2.0
TAU_STAR: float = (1.0 - SQRT5) / 2.0

# sqrt(5) to 40 decimal digits, held as the integer floor(sqrt(5) * 10^40).
# This drives the extended-precision phase path; the float constants above
# are only used for embeddings and coarse bounds.
_PHASE_DIGITS = 40
_PHASE_SCALE = 10**_PHASE_DIGITS
_SQRT5_SCALED = math.isqrt(5 * _PHASE_SCALE * _PHASE_SCALE)
_PHASE_DENOM = 10 * _PHASE_SCALE


# Array signs square |2m + n| and |n|; below this bound 5*n^2 and u^2 stay
# far inside int64, so the comparison is exact.
SIGN_ARRAY_BOUND = 2**30


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
    if not (_below(m) and _below(n) and _below(u := 2 * m + n)):
        raise ValueError(
            f"sign_of: |n| or |2m + n| reaches {SIGN_ARRAY_BOUND} in an int64 array"
        )
    su, sn = np.sign(u), np.sign(n)
    # equal signs (or a zero) decide at once; otherwise compare u^2 with 5 n^2
    return np.where(su * sn >= 0, np.sign(su + sn), su * np.sign(u * u - 5 * n * n))


def _below(x: np.ndarray) -> bool:
    return not np.any((x <= -SIGN_ARRAY_BOUND) | (x >= SIGN_ARRAY_BOUND))


@total_ordering
class QuadraticInt:
    """An element m + n*tau of Z[tau]."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int = 0) -> None:
        self.m = int(m)
        self.n = int(n)

    @classmethod
    def from_int(cls, x: int) -> "QuadraticInt":
        return cls(x, 0)

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
    result is reliable even when the head term is of order 1e18.
    """
    a, b, m, n = k.a, k.b, x.m, x.n
    A = a * m + b * n
    B = a * n + b * m + b * n
    num = (2 * A + B) * _SQRT5_SCALED + 5 * B * _PHASE_SCALE
    return (num % _PHASE_DENOM) / _PHASE_DENOM


def frac_phases(k: FourierModulePoint, ms: Iterable[int], ns: Iterable[int]) -> np.ndarray:
    """Vector of frac_phase(k, m + n*tau) over paired coordinate arrays."""
    a, b = k.a, k.b
    s5, scale, denom = _SQRT5_SCALED, _PHASE_SCALE, _PHASE_DENOM
    out = [
        (((2 * (a * m + b * n) + (a * n + b * m + b * n)) * s5
          + 5 * (a * n + b * m + b * n) * scale) % denom) / denom
        for m, n in zip(ms, ns)
    ]
    return np.asarray(out, dtype=np.float64)


def embed_array(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized physical embedding of (m, n) coordinate arrays."""
    return m.astype(np.float64) + n.astype(np.float64) * TAU


def embed_star_array(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized internal embedding of (m, n) coordinate arrays."""
    return m.astype(np.float64) + n.astype(np.float64) * TAU_STAR
