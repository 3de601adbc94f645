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
from .combs import WeightedComb
from .eberlein import AveragingSpec, RangeError
from .zroot5 import FourierModulePoint

__all__ = [
    "EtaTable",
    "tm_eta",
    "tm_signed_sequence",
    "tm_eta_bruteforce",
    "RieszCoefficients",
    "riesz_coefficients",
    "tm_pair_prediction",
    "pp_intensity",
    "IntensityRow",
    "polarisation_zero_check",
]


@dataclass(frozen=True)
class EtaTable:
    """Exact autocorrelation coefficients eta(0..m_max) of the signed sequence."""

    values: tuple[Fraction, ...]

    def __getitem__(self, m: int) -> Fraction:
        return self.values[abs(m)]

    def __len__(self) -> int:
        return len(self.values)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])


def tm_eta(m_max: int) -> EtaTable:
    """Exact eta table from the two-scale recursion.

    eta(2m) = eta(m) and eta(2m+1) = -(eta(m) + eta(m+1))/2 with eta(0) = 1.
    At m = 0 the odd rule is self-referential and pins eta(1) = -1/3.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
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


def tm_signed_sequence(n: int) -> np.ndarray:
    """First n letters of the signed doubling sequence as +-1.

    Generated from the bit-parity of the index, deliberately independent of
    the substitution machinery it cross-checks.
    """
    v = np.arange(n, dtype=np.uint32)
    v = v - ((v >> 1) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> 2) & np.uint32(0x33333333))
    v = (v + (v >> 4)) & np.uint32(0x0F0F0F0F)
    popcount = (v * np.uint32(0x01010101)) >> 24
    return (1 - 2 * (popcount & 1)).astype(np.int8)


def tm_eta_bruteforce(m_max: int, n_letters: int = 2**20) -> np.ndarray:
    """Oracle eta values: plain averages t_n t_{n+m} over a long prefix."""
    t = tm_signed_sequence(n_letters).astype(np.float64)
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        out[m] = float(np.mean(t[: n_letters - m] * t[m:])) if m else 1.0
    return out


@dataclass(frozen=True)
class RieszCoefficients:
    """Exact dyadic coefficients of the depth-L cosine product.

    The trigonometric polynomial prod_{l<L} (1 - cos(2^{l+1} pi k)) has
    integer coefficients over the denominator 2^L, supported on |m| < 2^L.
    """

    depth: int
    numerators: np.ndarray  # int64, index m + 2^depth - 1
    denominator: int

    def support(self) -> int:
        return 2**self.depth - 1

    def coefficient(self, m: int) -> Fraction:
        if abs(m) > self.support():
            return Fraction(0)
        return Fraction(int(self.numerators[m + self.support()]), self.denominator)

    def coefficient_float(self, m: int) -> float:
        if abs(m) > self.support():
            return 0.0
        return int(self.numerators[m + self.support()]) / self.denominator

    def evaluate_dyadic(self, grid_log2: int) -> np.ndarray:
        """Values on the grid j / 2^grid_log2 via folded coefficients."""
        n = 2**grid_log2
        folded = np.zeros(n)
        ms = np.arange(-self.support(), self.support() + 1)
        np.add.at(folded, ms % n, self.numerators / self.denominator)
        return np.fft.fft(folded).real


def riesz_coefficients(L: int, m_max: int | None = None) -> RieszCoefficients:
    """Coefficients of the depth-L cosine product, exactly.

    Each level maps c to c - (shift by +2^l + shift by -2^l)/2, tracked as
    int64 numerators over the growing power-of-two denominator.  Depth is
    capped at 24 to keep the dense coefficient array in memory.
    """
    if L < 1:
        raise ValueError("depth must be at least 1")
    if L > 24:
        raise ValueError("depth above 24 exceeds the memory budget")
    half = 2**L - 1
    size = 2 * half + 1
    num = np.zeros(size, dtype=np.int64)
    num[half] = 1  # constant polynomial 1, scaled by 2^0
    for level in range(L):
        shift = 2**level
        new = 2 * num
        new[shift:] -= num[:-shift]
        new[:-shift] -= num[shift:]
        num = new  # denominator doubled
    coeffs = RieszCoefficients(L, num, 2**L)
    if m_max is not None and m_max > coeffs.support():
        raise ValueError("m_max exceeds the support of the depth-L product")
    return coeffs


def tm_pair_prediction(alpha: str, beta: str, m: int, eta: EtaTable | None = None) -> float:
    """Predicted typed pair-correlation atom (1 + [alpha==beta] * eta(|m|)) / 4."""
    if alpha not in ("a", "b") or beta not in ("a", "b"):
        raise ValueError("types must be 'a' or 'b'")
    if eta is None or len(eta) <= abs(m):
        eta = tm_eta(abs(m))
    sign = 1.0 if alpha == beta else -1.0
    return 0.25 * (1.0 + sign * float(eta[m]))


@dataclass(frozen=True)
class IntensityRow:
    k: FourierModulePoint
    amplitudes: dict[str, complex]
    intensity: float


def pp_intensity(
    spec: cps.ModelSetSpec,
    weights: dict[str, complex],
    k_list: Sequence[FourierModulePoint],
    alphas: dict[str, float] | None = None,
) -> list[IntensityRow]:
    """Pure-point amplitudes and intensities of a weighted model-set family.

    The per-type amplitude at k is alpha_type times the window transform;
    the intensity is the squared modulus of the weighted amplitude sum.
    With alpha = 1 (full model sets), the amplitude at k = 0 is the type
    density.
    """
    rows = []
    for k in k_list:
        amps = {
            t: (1.0 if alphas is None else alphas[t])
            * cps.window_amplitude(w, k)
            for t, w in spec.windows.items()
        }
        total = sum(weights.get(t, 0.0) * a for t, a in amps.items())
        rows.append(IntensityRow(k, amps, abs(total) ** 2))
    return rows


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
    for comb, label in ((P, "first"), (Q, "second")):
        if comb.coverage[0] > lo or comb.coverage[1] < hi:
            raise RangeError(
                f"{label} comb covers {comb.coverage}, needs [{lo}, {hi}]"
            )
    pos_p = P.positions
    pos_q = Q.positions
    mass_p = P.weights[(pos_p >= lo) & (pos_p <= hi)].sum() if len(P) else 0.0
    mass_q = Q.weights[(pos_q >= lo) & (pos_q <= hi)].sum() if len(Q) else 0.0
    c0 = np.conj(mass_p) * mass_q / (vol * vol)
    return float(abs(c0 - expected))
