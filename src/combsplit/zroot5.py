"""Exact arithmetic in Z[tau] for tau the golden ratio, tau^2 = tau + 1.

Elements are stored as integer pairs (m, n) meaning m + n*tau.  The Galois
conjugation swaps tau with 1 - tau (equivalently sqrt(5) with -sqrt(5)); it
is the map that sends a physical-space coordinate to its internal-space
image.  Plain integers live here too, as pairs with n = 0, so lattice
systems share the same key space.

Python integers are arbitrary precision, so ring operations can never
overflow silently; products of desk-scale coordinates stay exact.  The
array paths (sign_of and star_sign on int64 arrays, frac_phases and its
phase words) are exact inside stated bounds and raise ValueError outside
them.
"""

from __future__ import annotations

import math
from functools import cache, total_ordering

import numpy as np

__all__ = [
    "TAU",
    "TAU_STAR",
    "SQRT5",
    "QuadraticInt",
    "FourierModulePoint",
    "sign_of",
    "star_sign",
    "SIGN_ARRAY_BOUND",
    "embed_array",
    "embed_star_array",
    "frac_phases",
    "PHASE_KEY_BOUND",
    "PHASE_K_BOUND",
]

SQRT5: float = math.sqrt(5.0)
TAU: float = (1.0 + SQRT5) / 2.0
TAU_STAR: float = (1.0 - SQRT5) / 2.0

# Array signs square |2m + n| and |n|; below this bound 5*n^2 and u^2 stay
# far inside int64, so the comparison is exact.
SIGN_ARRAY_BOUND = 2**30

# frac_phases takes keys with |m|, |n| < PHASE_KEY_BOUND (the key code's
# bound) and module points with |a|, |b| < PHASE_K_BOUND.  Then |2A + B| =
# |m(2a + b) + n(a + 3b)| < 2^31 * 2^17 = 2^48: inside int64, and small
# enough that no phase rounds to 1.0 (see frac_phases).
PHASE_KEY_BOUND = 2**31
PHASE_K_BOUND = 2**14
_M128 = (1 << 128) - 1


# A key (m, n) is stored as one int64 code, m * 2**32 + n.  While |m| and |n|
# stay below 2**31, codes are distinct and order like the keys
# lexicographically, the code of -k is minus the code of k, and the codes of
# two keys add to the code of their sum when it stays in range too.


def _codes(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The codes of the keys (m[i], n[i]) of int64 arrays; ValueError when |m|
    or |n| reaches 2**31, instead of wrapping into collisions."""
    if not (_below(m, PHASE_KEY_BOUND) and _below(n, PHASE_KEY_BOUND)):
        raise ValueError("exact key out of range: |m| and |n| must be below 2**31")
    return (m << 32) + n


def _encode(keys: np.ndarray) -> np.ndarray:
    return _codes(keys[:, 0], keys[:, 1])


def _key_parts(codes: np.ndarray, m=None, n=None) -> tuple[np.ndarray, np.ndarray]:
    """The int64 arrays m and n of the keys of codes, into m and n if given."""
    m = np.add(codes, PHASE_KEY_BOUND, out=m)
    m >>= 32
    n = np.left_shift(m, 32, out=n)
    return m, np.subtract(codes, n, out=n)


def _decode(codes: np.ndarray) -> np.ndarray:
    keys = np.empty((len(codes), 2), dtype=np.int64)
    _key_parts(codes, *keys.T)  # no temporary beyond the keys
    return keys


def _code(m: int, n: int) -> int | None:
    """The code of the key (m, n) of Python ints; None when |m| or |n|
    reaches 2**31, where a key has no code."""
    return (m << 32) + n if max(abs(m), abs(n)) < PHASE_KEY_BOUND else None


def _code_position(code) -> float:
    """float(m) + float(n) * TAU for the key of one code, in Python ints:
    the double that embed_array forms from _key_parts."""
    code = int(code)
    m = (code + PHASE_KEY_BOUND) >> 32
    return float(m) + float(code - (m << 32)) * TAU


def _integer_sites(codes: np.ndarray) -> np.ndarray | None:
    """The int64 m of the keys of codes when every n is 0, else None."""
    return None if (codes & (2**32 - 1)).any() else codes >> 32


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
    return not x.size or bool(-bound < x.min() and x.max() < bound)


def star_sign(m: np.ndarray, n: np.ndarray, star: np.ndarray, e: "QuadraticInt") -> np.ndarray:
    """Exact sign of (m + n*tau)* - e, the sign of (m + n - p) + (-n - q)*tau
    for e = p + q*tau, per entry of int64 arrays m and n of one shape, with
    star = embed_star_array(m, n): the signs sign_of gives on those pairs (as
    int8 or int64), and its ValueError where it would raise.

    The bound check of the array sign_of runs on every array.  With M, N the
    largest |m|, |n|, the pairs have |m + n - p|, |n + q| and |2(m + n - p)
    - n - q| at most 2M + N + 2|p| + |q|; while that stays below
    SIGN_ARRAY_BOUND sign_of cannot raise, and from there on every entry
    takes sign_of, which checks and raises as before.

    Below the bound, floats decide outside a band about e.  With u = 2^-53,
    TAU_STAR and TAU are within u of tau* and tau (sqrt(5) is rounded once;
    1 -+ it and the halving are exact), and m, n convert exactly.  So star =
    fl(fl(n*TAU_STAR) + m) is within u(|n| + 0.62|n| + |m| + 0.62|n|) =
    u(|m| + 2.24|n|) of the conjugate, and x = e.embed() = fl(p + fl(q*TAU))
    within u(|p| + 4.24|q|) of e, up to second-order terms.  Rounding x +-
    band costs u(|x| + band) <= u(|p| + 1.62|q| + band) more.  The errors add
    to at most u(M + 2.24N + 2|p| + 5.86|q| + band) plus second-order terms,
    below band = 2^-50 (M + N + |p| + 2|q|) = 8u(M + N + |p| + 2|q|) whenever
    it is not 0 (and every error is 0 when it is).  So star > fl(x + band)
    proves the sign +1, star < fl(x - band) proves -1, and only the entries
    in between take sign_of.
    """
    p, q = e.m, e.n
    big_m, big_n = _magnitude(m), _magnitude(n)
    if 2 * big_m + big_n + 2 * abs(p) + abs(q) >= SIGN_ARRAY_BOUND:
        return sign_of(m + n - p, -n - q)
    band = (big_m + big_n + abs(p) + 2 * abs(q)) * 2.0**-50
    x = e.embed()
    above, below = star > x + band, star < x - band
    signs = above.view(np.int8) - below.view(np.int8)
    near = np.nonzero(above == below)
    signs[near] = sign_of(m[near] + n[near] - p, -n[near] - q)
    return signs


def _magnitude(x: np.ndarray) -> int:
    """The largest |x| of an int64 array as a Python int; 0 when empty."""
    return max(-int(x.min()), int(x.max())) if x.size else 0


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

    def star(self) -> "QuadraticInt":
        """Galois conjugate: m + n*tau maps to (m + n) - n*tau."""
        return QuadraticInt(self.m + self.n, -self.n)

    def embed(self) -> float:
        """Physical embedding m + n*tau in double precision."""
        return self.m + self.n * TAU



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

    def value(self) -> float:
        """The real wave number (a + b*tau)/sqrt(5)."""
        return (self.a + self.b * TAU) / SQRT5

    def star_value(self) -> float:
        """The internal-space wave number -(a + b*(1 - tau))/sqrt(5)."""
        return -(self.a + self.b * TAU_STAR) / SQRT5


def frac_phases(k: FourierModulePoint, ms, ns) -> np.ndarray:
    """frac(k*(m + n*tau)) over int64 arrays (or lists) ms, ns: the phase
    words (_phase_words) correctly rounded, in [0, 1) and within half an ulp
    plus 2^-96; ValueError at PHASE_KEY_BOUND or PHASE_K_BOUND, not wrapping."""
    return _unit_double(*_phase_words(k, *_key_offsets(ms, ns)))


def _key_offsets(ms, ns) -> tuple[np.ndarray, np.ndarray]:
    """uint64 m + 2^31, n + 2^31 in [1, 2^32); ValueError at PHASE_KEY_BOUND."""
    try:
        m, n = np.asarray(ms, dtype=np.int64), np.asarray(ns, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"frac_phases: keys beyond int64: {exc}") from None
    if not (_below(m, PHASE_KEY_BOUND) and _below(n, PHASE_KEY_BOUND)):
        raise ValueError(f"frac_phases: |m| or |n| reaches {PHASE_KEY_BOUND}")
    offset = np.uint64(PHASE_KEY_BOUND)
    return m.view(np.uint64) + offset, n.view(np.uint64) + offset


def _phase_words(k: FourierModulePoint, um: np.ndarray, un: np.ndarray):
    """The (hi, lo) uint64 halves of the phase word W ~ 2^128 frac(k*x) at
    the keys x = m + n*tau that _key_offsets gives as um, un.

    frac(k*x) = frac(m*F1 + n*F2) with F1 = frac(k), F2 = frac(k*tau) held
    once per k as floored 128-bit fractions (from math.isqrt), and m*F1 +
    n*F2 is formed mod 2^128 from 32-bit halves on uint64 arrays, where
    every product fits and wrapping is exact; so W is off by less than |m| +
    |n| < 2^32.  When q = 2A + B = 0, k*x = B/2 = -A is an integer and W is
    set to 0.  Otherwise k*x = (q*sqrt(5) + 5B)/10 lies |q*sqrt(5) - p|/10
    from the nearest integer for some integer p with |q*sqrt(5) - p| <= 5,
    and since sqrt(5) is badly approximable, |q*sqrt(5) - p| = |5q^2 - p^2|
    / |q*sqrt(5) + p| >= 1 / (4.5|q| + 5).  With |q| < 2^48 (PHASE_K_BOUND),
    k*x stays 2^-54 (2^74 in W) from every integer: the integer phases are
    the words whose hi is 0 or 2^64 - 1, and no phase rounds to 1.  Raises
    ValueError when |a| or |b| reaches PHASE_K_BOUND.
    """
    a, b = k.a, k.b
    if max(abs(a), abs(b)) >= PHASE_K_BOUND:
        raise ValueError(f"frac_phases: |a| or |b| of {k} reaches {PHASE_K_BOUND}")
    # k = ((2a + b)*sqrt(5) + 5b)/10 and k*tau = ((a + 3b)*sqrt(5) + 5(a + b))/10
    f1, f2 = _fixed_frac(2 * a + b, b), _fixed_frac(a + 3 * b, a + b)
    hi, lo = _add128(*_mul_frac(um, f1), *_mul_frac(un, f2))
    shift = -PHASE_KEY_BOUND * (f1 + f2) & _M128
    hi, lo = _add128(hi, lo, np.uint64(shift >> 64), np.uint64(shift & (2**64 - 1)))
    integer = hi + np.uint64(1) <= np.uint64(1)
    hi[integer] = lo[integer] = 0
    return hi, lo


@cache
def _char_table() -> np.ndarray:
    """exp(-2 pi i j / 256) for j < 256, each part correctly rounded (tests
    check every entry against mpmath), from powers of exp(2 pi i / 256) in
    2^128 fixed point (pi by Machin's formula) and exact rotations."""
    one = 1 << 128
    pi = sum((-1) ** i * (16 * one // 5 ** (2 * i + 1) - 4 * one // 239 ** (2 * i + 1))
             // (2 * i + 1) for i in range(60))
    c, s, x, y = 0, 0, one, 0
    for i in range(1, 40):  # one * (cos, sin)(pi / 128), term by term
        c, s, x, y = c + x, s + y, -y * pi // (128 * one * i), x * pi // (128 * one * i)
    quadrant = [z := (one, 0)] + [
        z := ((z[0] * c - z[1] * s) // one, (z[0] * s + z[1] * c) // one) for _ in range(63)]
    cos, sin = (np.array([v / one for v in part]) for part in zip(*quadrant))
    # exact, with every zero +0.0: adding 0.0 and subtracting the 0 * y of 1j * y change no part
    return np.r_[cos, -sin, -cos, sin] + 0.0 - 1j * np.r_[sin, cos, -sin, -cos]


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
    # right.  Values below 2^-10 take exact Python-int division instead, bar
    # the exact zeros (integer phases), which convert exactly.
    out = (hi | (lo != 0)).astype(np.float64) * 2.0**-64
    for i in np.flatnonzero((hi < np.uint64(2**54)) & ((hi | lo) != 0)).tolist():
        out[i] = (int(hi[i]) << 64 | int(lo[i])) / 2**128
    return out


def embed_star_array(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized internal embedding: per entry float(m) + float(n) *
    TAU_STAR, rounded after each operation, the double star_sign takes."""
    out = n.astype(np.float64)
    out *= TAU_STAR
    out += m
    return out


def embed_array(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorized physical embedding of (m, n) coordinate arrays: per entry
    float(m) + float(n) * TAU, rounded after each operation, the same double
    as QuadraticInt.embed.  One array is allocated; m is converted as it is
    added."""
    out = n.astype(np.float64)
    out *= TAU
    out += m
    return out
