"""Diffraction-side quantities: the doubling-sequence autocorrelation, its
cosine-product partial coefficients, pure-point intensities from window
transforms, and the zero-frequency counting check.

The autocorrelation coefficients of the signed two-letter doubling
sequence are generated two ways on purpose: a closed recursion kept in
exact rationals, and a direct average over a long prefix of the sequence.
The recursion is the fast path; the average is the oracle it is judged
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import cps
from .combs import WeightedComb, _bounds, _covers
from .eberlein import AveragingSpec
from .zroot5 import FourierModulePoint

__all__ = [
    "EtaTable",
    "tm_eta",
    "tm_eta_bruteforce",
    "RieszCoefficients",
    "riesz_coefficients",
    "pp_intensity",
    "IntensityRow",
    "polarisation_zero_check",
]

# the signed sequence is made, and its products taken, SEQUENCE_BLOCK letters
# at a time
SEQUENCE_BLOCK = 1 << 16
# An eta table entry costs this many 8-byte budget points: diffract --eta 1e5,
# 2e5, 4e5 and 8e5 peaked at 50.1, 70.3, 110.7 and 191.9 MiB spawned (30.3 MiB
# at --eta 0, 2-core x86 machine), about 212 B an entry.
ETA_ENTRY_UNITS = 27


@dataclass(frozen=True)
class EtaTable:
    """Exact autocorrelation coefficients eta(0..m_max) of the signed sequence."""

    values: tuple[Fraction, ...]

    def __getitem__(self, m: int) -> Fraction:
        return self.values[abs(m)]

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])


def tm_eta(m_max: int) -> EtaTable:
    """Exact eta table from the two-scale recursion.

    eta(2m) = eta(m) and eta(2m+1) = -(eta(m) + eta(m+1))/2 with eta(0) = 1.
    At m = 0 the odd rule is self-referential and pins eta(1) = -1/3.  The
    table is charged to the points budget, ETA_ENTRY_UNITS an entry, first.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    cps.check_points_budget((m_max + 1) * ETA_ENTRY_UNITS, f"the eta table on 0 <= m <= "
                            f"{m_max} ({ETA_ENTRY_UNITS} budget points an entry)")
    vals: list[Fraction] = [Fraction(1)]
    if m_max >= 1:
        vals.append(Fraction(-1, 3))
    for m in range(2, m_max + 1):
        if m % 2 == 0:
            vals.append(vals[m // 2])
        else:
            # both indices m//2 and m//2 + 1 lie strictly below m here
            vals.append(-(vals[m // 2] + vals[m // 2 + 1]) / 2)
    return EtaTable(tuple(vals[: m_max + 1]))


def _signs(lo: int, hi: int) -> np.ndarray:
    # letters lo..hi-1 of the signed sequence as int8, from the parities of
    # their uint32 indices, made SEQUENCE_BLOCK at a time
    signs = np.empty(hi - lo, dtype=np.int8)
    for a in range(lo, hi, SEQUENCE_BLOCK):
        index = np.arange(a, min(a + SEQUENCE_BLOCK, hi), dtype=np.uint32)
        np.bitwise_count(index, out=signs[a - lo : a - lo + SEQUENCE_BLOCK].view(np.uint8))
    signs &= 1
    signs *= -2
    signs += 1
    return signs


def tm_eta_bruteforce(m_max: int, n_letters: int = 2**20) -> np.ndarray:
    """Oracle eta values: plain averages t_n t_{n+m} over a long prefix.

    With eq of the count = n_letters - m products equal to +1, the average
    is (2 eq - count) / count.  Both are whole numbers, so the quotient is
    the correctly rounded double that a float mean of the products gives:
    every partial sum of +-1 terms is exact.  The products t_n t_{n+m} are
    taken for SEQUENCE_BLOCK values of n at a time, from the letters of
    that block and the m_max after it, by plain equality of the signs (this
    is the oracle of the bit-row kernel, so it does not use it).
    """
    eq = [0] * (m_max + 1)
    for a in range(0, n_letters, SEQUENCE_BLOCK):
        t = _signs(a, min(a + SEQUENCE_BLOCK + m_max, n_letters))
        for m in range(m_max + 1):
            k = min(SEQUENCE_BLOCK, n_letters - m - a)  # the products with a <= n < a + k
            if k > 0:
                eq[m] += int(np.count_nonzero(t[:k] == t[m : m + k]))
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        count = n_letters - m
        out[m] = (2 * eq[m] - count) / count
    return out


@dataclass(frozen=True)
class RieszCoefficients:
    """Exact dyadic coefficients of the depth-L cosine product.

    The trigonometric polynomial prod_{l<L} (1 - cos(2^{l+1} pi k)) has
    integer coefficients over the denominator 2^L, supported on |m| < 2^L.
    The numerators are held for |m| <= window only.
    """

    depth: int
    window: int
    numerators: np.ndarray  # int64, index m + window
    denominator: int

    def support(self) -> int:
        return 2**self.depth - 1

    def _numerator(self, m: int) -> int:
        if abs(m) > self.support():
            return 0
        if abs(m) > self.window:
            raise ValueError(f"coefficient {m} lies outside the window |m| <= {self.window}")
        return int(self.numerators[m + self.window])

    def coefficient(self, m: int) -> Fraction:
        return Fraction(self._numerator(m), self.denominator)

    def coefficient_float(self, m: int) -> float:
        return self._numerator(m) / self.denominator


def riesz_coefficients(L: int, m_max: int | None = None) -> RieszCoefficients:
    """Coefficients of the depth-L cosine product for |m| <= m_max (None: the
    whole support), exactly.

    The numerators f_l of the depth-(L - l) product at 2^l k satisfy f_L(r) =
    [r = 0], f_l(2r) = 2 f_{l+1}(r) and f_l(2r + 1) = -f_{l+1}(r) - f_{l+1}(r + 1),
    exact in int64 as |f_l| <= 2^(L - l); level l needs |r| <= (m_max >> l) + 1
    only.  The depth is at most 31, which keeps even the looser bound 4^L on
    the numerators below 2^63, and the window's 2 m_max + 1 int64 entries
    are charged to the points budget, so the whole support is refused from
    depth 25 on.
    """
    if L < 1:
        raise ValueError("depth must be at least 1")
    if L > 31:
        raise ValueError(f"depth must be at most 31, got {L}")
    support = 2**L - 1
    m_max = support if m_max is None else m_max
    if m_max > support:
        raise ValueError("m_max exceeds the support of the depth-L product")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    cps.check_points_budget(2 * m_max + 1, f"the depth-{L} cosine product on |m| <= {m_max}")
    f = np.array([0, 1, 0], dtype=np.int64)  # f_L on |r| <= 1
    for level in range(L - 1, -1, -1):
        reach = len(f) // 2
        out = np.empty(2 * len(f) - 1, dtype=np.int64)  # f_level on |r| <= 2 reach
        out[0::2] = 2 * f
        out[1::2] = -(f[:-1] + f[1:])
        keep = (m_max >> level) + (level > 0)
        f = out[2 * reach - keep : 2 * reach + keep + 1]
    return RieszCoefficients(L, m_max, f, 2**L)


@dataclass(frozen=True)
class IntensityRow:
    k: FourierModulePoint
    amplitudes: dict[str, complex]


def pp_intensity(
    windows: dict[str, cps.Window],
    k_list: Sequence[FourierModulePoint],
    alphas: dict[str, float],
) -> list[IntensityRow]:
    """Per type, alpha_type times its window's transform at each k: the
    pure-point amplitudes of a model-set family of unit weights, whose sum
    over the types is the family's amplitude.  With alpha = 1, a type's
    amplitude at k = 0 is its density."""
    return [IntensityRow(k, {t: alphas[t] * cps.window_amplitude(w, k)
                             for t, w in windows.items()}) for k in k_list]


def polarisation_zero_check(
    P: WeightedComb,
    Q: WeightedComb,
    shape: str,
    R: float,
    expected: float,
) -> float:
    """Zero-frequency counting check of the averaged correlation.

    The full finite correlation of two combs carries total mass equal to
    the product of their restricted masses over one volume factor; its
    zero-frequency coefficient is that mass over another.  The residual
    against the expected density product (for point combs, the product of
    the limiting densities) vanishes as R grows.
    """
    spec = AveragingSpec(shape, (R,))
    lo, hi = spec.interval(R)
    vol = spec.vol(R)
    _covers(P, lo, hi, "first comb")
    _covers(Q, lo, hi, "second comb")
    # the masses of the atoms fb_scan sums on [lo, hi]
    mass_p, mass_q = (c.levels[c.level[slice(*_bounds(c, lo, hi))]].sum() for c in (P, Q))
    c0 = np.conj(mass_p) * mass_q / (vol * vol)
    return float(abs(c0 - expected))
