"""Finite-volume averaged convolutions, pair correlations and FB scans.

Everything here is a finite-R approximant: combs are restricted to an
averaging interval, convolved, and divided by the interval volume.  The
first factor is restricted to the reflected interval, which coincides with
the usual recipe for symmetric intervals and is the consistent extension
for one-sided ones.  Two kernels back the convolution: an exact sweep over
sorted golden-ratio keys, and a sliding dot product over dense arrays when
both combs live on the integers.  The sweep sums each atom with math.fsum,
correctly rounded.  The dense kernel sums with numpy's pairwise summation,
which is exact for integer-valued products (so counting identities hold
exactly) but not correctly rounded for general weights.  Both are
order-fixed, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combs import WeightedComb, _encode, reflect_conjugate
from .zroot5 import FourierModulePoint, embed_array, frac_phases

__all__ = [
    "AveragingSpec",
    "RangeError",
    "eberlein_convolve",
    "pair_correlation",
    "fb_coefficient",
    "fb_scan",
    "FBRow",
    "orthogonality_report",
    "OrthogonalityRow",
    "decomposition_report",
    "DecompositionReport",
    "smoothed_fb_check",
    "boundary_fraction",
]


class RangeError(ValueError):
    """A comb does not cover the interval a kernel needs."""


@dataclass(frozen=True)
class AveragingSpec:
    """A nested family of averaging intervals, one_sided [0,R] or symmetric [-R,R]."""

    shape: str
    R_list: tuple[float, ...]

    def __post_init__(self):
        if self.shape not in ("one_sided", "symmetric"):
            raise ValueError(f"unknown averaging shape {self.shape!r}")
        Rs = self.R_list
        if not all(math.isfinite(R) for R in Rs):
            raise ValueError("R_list entries must be finite")
        if not Rs or any(b <= a for a, b in zip(Rs, Rs[1:])) or Rs[0] <= 0:
            raise ValueError("R_list must be positive and strictly increasing")

    def interval(self, R: float) -> tuple[float, float]:
        return (0.0, R) if self.shape == "one_sided" else (-R, R)

    def vol(self, R: float) -> float:
        return R if self.shape == "one_sided" else 2.0 * R


def averaging_interval(shape: str, R: float) -> tuple[float, float]:
    return AveragingSpec(shape, (R,)).interval(R)


def averaging_vol(shape: str, R: float) -> float:
    return AveragingSpec(shape, (R,)).vol(R)


def _require(cond: bool, msg: str):
    if not cond:
        raise RangeError(msg)


def _restrict_arrays(comb: WeightedComb, lo: float, hi: float):
    pos = comb.positions
    i = np.searchsorted(pos, lo - 1e-12, side="left")
    j = np.searchsorted(pos, hi + 1e-12, side="right")
    return pos[i:j], comb.keys[i:j], comb.weights[i:j]


def eberlein_convolve(
    mu: WeightedComb,
    nu: WeightedComb,
    shape: str,
    R: float,
    r_max: float = 20.0,
    variant: str = "both",
) -> WeightedComb:
    """Finite-R averaged convolution of two combs.

    Parameters
    ----------
    mu, nu : WeightedComb
        The factors.  mu is restricted to the reflected averaging interval
        -A; nu to A itself (variant "both") or left unrestricted within the
        reach of r_max (variant "one").
    shape, R : averaging interval family and radius; A = [0, R] or [-R, R].
    r_max : only atoms of the result with |distance| <= r_max are kept.
    variant : "both" or "one".

    Returns
    -------
    WeightedComb on the coverage [-r_max, r_max], with weight at s equal to
    the sum of mu(x) * nu(y) over the admitted pairs with x + y = s, divided
    by vol(A).

    Raises
    ------
    RangeError when a factor's coverage does not contain the interval its
    restriction needs; nothing is truncated silently.
    """
    if variant not in ("both", "one"):
        raise ValueError(f"unknown variant {variant!r}")
    lo, hi = averaging_interval(shape, R)
    vol = averaging_vol(shape, R)

    _require(
        mu.coverage[0] <= -hi and mu.coverage[1] >= -lo,
        f"first factor covers {mu.coverage}, needs [{-hi}, {-lo}] for R={R}",
    )
    if variant == "both":
        nu_lo, nu_hi = lo, hi
    else:
        nu_lo, nu_hi = lo - r_max, hi + r_max
    _require(
        nu.coverage[0] <= nu_lo and nu.coverage[1] >= nu_hi,
        f"second factor covers {nu.coverage}, needs [{nu_lo}, {nu_hi}] for R={R}",
    )

    _, kx, wx = _restrict_arrays(mu, -hi, -lo)
    _, ky, wy = _restrict_arrays(nu, nu_lo, nu_hi)

    coverage = (-r_max, r_max)
    if len(kx) == 0 or len(ky) == 0:
        dtype = np.result_type(wx.dtype, wy.dtype, np.float64)
        return WeightedComb(
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=dtype), coverage
        )

    if np.all(kx[:, 1] == 0) and np.all(ky[:, 1] == 0):
        keys, weights = _convolve_dense(kx[:, 0], wx, ky[:, 0], wy, r_max)
    else:
        keys, weights = _convolve_sweep(kx, wx, ky, wy, r_max)
    # divide real and imaginary parts separately: numpy's complex division
    # multiplies by a reciprocal and would round twice
    quotient = (weights.view(np.float64) / vol).view(weights.dtype)
    return WeightedComb(keys, quotient, coverage)


def _convolve_dense(mx, wx, my, wy, r_max):
    # Sliding dot products over dense integer-indexed arrays.  numpy's
    # pairwise summation is exact for integer-valued products, so counts
    # are exact; other weights are not guaranteed to be correctly rounded.
    complex_out = np.iscomplexobj(wx) or np.iscomplexobj(wy)
    dtype = np.complex128 if complex_out else np.float64
    x0, x1 = int(mx[0]), int(mx[-1])
    y0, y1 = int(my[0]), int(my[-1])
    ax = np.zeros(x1 - x0 + 1, dtype=dtype)
    ax[mx - x0] = wx
    by = np.zeros(y1 - y0 + 1, dtype=dtype)
    by[my - y0] = wy

    r = math.floor(r_max + 1e-9)
    out_keys = []
    out_weights = []
    for s in range(-r, r + 1):
        m_lo = max(x0, s - y1)
        m_hi = min(x1, s - y0)
        if m_lo > m_hi:
            continue
        xa = ax[m_lo - x0 : m_hi - x0 + 1]
        yb = by[s - m_hi - y0 : s - m_lo - y0 + 1][::-1]
        w = np.sum(xa * yb)
        if w != 0:
            out_keys.append((s, 0))
            out_weights.append(w)
    if not out_keys:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=dtype)
    return np.asarray(out_keys, dtype=np.int64), np.asarray(out_weights, dtype=dtype)


def _convolve_sweep(kx, wx, ky, wy, r_max):
    # Exact-key two-pointer sweep: for every x-atom, the admissible y-atoms
    # form a contiguous window of the sorted nu support.
    px = embed_array(kx[:, 0], kx[:, 1])
    py = embed_array(ky[:, 0], ky[:, 1])
    lo_idx = np.searchsorted(py, -r_max - px - 1e-9, side="left")
    hi_idx = np.searchsorted(py, r_max - px + 1e-9, side="right")
    counts = hi_idx - lo_idx
    total = int(counts.sum())
    complex_out = np.iscomplexobj(wx) or np.iscomplexobj(wy)
    dtype = np.complex128 if complex_out else np.float64
    if total == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=dtype)

    i_rep = np.repeat(np.arange(len(px)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    j_flat = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo_idx, counts)

    sum_keys = kx[i_rep] + ky[j_flat]
    products = wx[i_rep].astype(dtype) * wy[j_flat]

    # the eps guard above may admit a hair beyond r_max; cut exactly here
    pos_s = px[i_rep] + py[j_flat]
    keep = np.abs(pos_s) <= r_max + 1e-9
    sum_keys = sum_keys[keep]
    products = products[keep]
    if len(products) == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=dtype)

    codes = _encode(sum_keys)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    products = products[order]
    sum_keys = sum_keys[order]
    boundaries = np.concatenate(
        ([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1, [len(codes)])
    )
    n_bins = len(boundaries) - 1
    keys = sum_keys[boundaries[:-1]]
    weights = np.empty(n_bins, dtype=dtype)
    if complex_out:
        re = products.real
        im = products.imag
        for b in range(n_bins):
            i, j = boundaries[b], boundaries[b + 1]
            weights[b] = complex(
                math.fsum(re[i:j].tolist()), math.fsum(im[i:j].tolist())
            )
    else:
        for b in range(n_bins):
            i, j = boundaries[b], boundaries[b + 1]
            weights[b] = math.fsum(products[i:j].tolist())
    keep = weights != 0
    keys = keys[keep]
    weights = weights[keep]
    order = np.argsort(embed_array(keys[:, 0], keys[:, 1]), kind="stable")
    return keys[order], weights[order]


def pair_correlation(
    mu: WeightedComb,
    nu: WeightedComb,
    shape: str,
    R: float,
    r_max: float = 20.0,
    variant: str = "both",
) -> WeightedComb:
    """Averaged correlation: the reflected conjugate of mu convolved with nu.

    Atoms sit at differences y - x of the two supports.
    """
    return eberlein_convolve(reflect_conjugate(mu), nu, shape, R, r_max, variant)


def fb_coefficient(
    mu: WeightedComb,
    k: FourierModulePoint | float,
    shape: str,
    R: float,
) -> complex:
    """Volume-averaged exponential sum of the comb at wave number k.

    Module points are evaluated through the extended-precision fractional
    phase; generic real k uses the direct product with the embedded
    positions.  Atoms are consumed in ascending position order and summed
    with correctly rounded accumulation.
    """
    lo, hi = averaging_interval(shape, R)
    _require(
        mu.coverage[0] <= lo and mu.coverage[1] >= hi,
        f"comb covers {mu.coverage}, needs [{lo}, {hi}]",
    )
    pos, keys, weights = _restrict_arrays(mu, lo, hi)
    vol = averaging_vol(shape, R)
    if len(keys) == 0:
        return 0.0 + 0.0j
    if isinstance(k, FourierModulePoint):
        if k.is_zero():
            phase_factors = np.ones(len(keys))
        else:
            phases = frac_phases(k, keys[:, 0].tolist(), keys[:, 1].tolist())
            phase_factors = np.exp(-2j * math.pi * phases)
    else:
        phase_factors = np.exp(-2j * math.pi * float(k) * pos)
    products = weights * phase_factors
    if np.iscomplexobj(products):
        re = math.fsum(products.real.tolist())
        im = math.fsum(products.imag.tolist())
    else:
        re, im = math.fsum(products.tolist()), 0.0
    return complex(re / vol, im / vol)


@dataclass(frozen=True)
class FBRow:
    k: FourierModulePoint | float
    R: float
    value: complex
    cauchy: float | None  # |c(R) - c(previous R)|, None on the first R

    def k_value(self) -> float:
        return self.k.value() if isinstance(self.k, FourierModulePoint) else float(self.k)


def fb_scan(
    mu: WeightedComb,
    K: Sequence[FourierModulePoint | float],
    spec: AveragingSpec,
) -> list[FBRow]:
    """FB coefficients of a comb over a k-set and a growing R grid.

    Each row also carries the Cauchy difference against the previous R, the
    finite-size stand-in for convergence of the averaging limit.
    """
    rows: list[FBRow] = []
    for k in K:
        prev: complex | None = None
        for R in spec.R_list:
            value = fb_coefficient(mu, k, spec.shape, R)
            cauchy = None if prev is None else abs(value - prev)
            rows.append(FBRow(k, R, value, cauchy))
            prev = value
    return rows


@dataclass(frozen=True)
class OrthogonalityRow:
    R: float
    sup_omega_nu: float
    sup_nu_omega: float


def orthogonality_report(
    omega: WeightedComb,
    nu: WeightedComb,
    spec: AveragingSpec,
    r_max: float = 20.0,
    variant: str = "both",
) -> list[OrthogonalityRow]:
    """Sup norms of the two finite cross correlations along the R grid.

    Both numbers should shrink with R when the splitting is orthogonal in
    the averaged sense.
    """
    rows = []
    for R in spec.R_list:
        c1 = pair_correlation(omega, nu, spec.shape, R, r_max, variant)
        c2 = pair_correlation(nu, omega, spec.shape, R, r_max, variant)
        rows.append(OrthogonalityRow(R, c1.sup_norm(), c2.sup_norm()))
    return rows


@dataclass(frozen=True)
class DecompositionReport:
    gamma: WeightedComb
    s_part: WeightedComb
    zero_part: WeightedComb
    cross_ij: WeightedComb
    cross_ji: WeightedComb
    bilinear_residual: float
    cross_sup: float
    zero_fb_max: float


def decomposition_report(
    comb_i: WeightedComb,
    comb_j: WeightedComb,
    split_i: tuple[WeightedComb, WeightedComb],
    split_j: tuple[WeightedComb, WeightedComb],
    shape: str,
    R: float,
    r_max: float = 20.0,
    module_k: Sequence[FourierModulePoint | float] = (),
) -> DecompositionReport:
    """Correlation of a typed pair against the pieces of its splitting.

    Computes gamma_ij and the four split correlations with the identical
    both-restricted kernel, so the bilinear identity

        gamma_ij = s_part + zero_part + cross_ij + cross_ji

    holds atom-for-atom up to final rounding; the largest violation is
    reported as bilinear_residual.  zero_fb_max is the largest
    exponential-sum coefficient of the zero part over the supplied wave
    numbers, normalized by the support length 2 * r_max: the finite proxy
    for a null FB spectrum of the continuous-part correlation.
    """
    omega_i, nu_i = split_i
    omega_j, nu_j = split_j
    args = (shape, R, r_max, "both")
    gamma = pair_correlation(comb_i, comb_j, *args)
    s_part = pair_correlation(omega_i, omega_j, *args)
    zero_part = pair_correlation(nu_i, nu_j, *args)
    cross_ij = pair_correlation(omega_i, nu_j, *args)
    cross_ji = pair_correlation(nu_i, omega_j, *args)

    merged: dict[tuple[int, int], complex] = {}
    for part, sign in (
        (gamma, 1.0),
        (s_part, -1.0),
        (zero_part, -1.0),
        (cross_ij, -1.0),
        (cross_ji, -1.0),
    ):
        for key, w in part.atoms_dict().items():
            merged[key] = merged.get(key, 0.0) + sign * w
    residual = max((abs(v) for v in merged.values()), default=0.0)

    cross_sup = max(cross_ij.sup_norm(), cross_ji.sup_norm())
    zero_fb = 0.0
    if module_k and len(zero_part):
        dist = zero_part.positions
        for k in module_k:
            kv = k.value() if isinstance(k, FourierModulePoint) else float(k)
            ssum = np.sum(zero_part.weights * np.exp(-2j * math.pi * kv * dist))
            zero_fb = max(zero_fb, abs(complex(ssum)) / (2.0 * r_max))
    return DecompositionReport(
        gamma,
        s_part,
        zero_part,
        cross_ij,
        cross_ji,
        float(residual),
        float(cross_sup),
        float(zero_fb),
    )


def smoothed_fb_check(
    mu: WeightedComb,
    width: float,
    k: float,
    shape: str,
    R: float,
) -> float:
    """Residual of the smoothing identity for a triangular kernel.

    Mollifying a comb with the unit triangle of the given width multiplies
    its FB coefficient by width * sinc^2(pi k width).  The left side is
    integrated on a grid of spacing width/64 over the averaging interval;
    the returned residual should shrink as R grows.
    """
    lo, hi = averaging_interval(shape, R)
    vol = averaging_vol(shape, R)
    _require(
        mu.coverage[0] <= lo - width and mu.coverage[1] >= hi + width,
        "comb must cover the averaging interval plus one kernel width",
    )
    h = width / 64.0
    n_grid = int(round((hi - lo) / h)) + 1
    t = lo + h * np.arange(n_grid)

    pos, _, weights = _restrict_arrays(mu, lo - width, hi + width)
    f = np.zeros(n_grid)
    for x, w in zip(pos, weights.real):
        j0 = max(0, int(math.ceil((x - width - lo) / h)))
        j1 = min(n_grid - 1, int(math.floor((x + width - lo) / h)))
        if j0 > j1:
            continue
        tt = t[j0 : j1 + 1]
        f[j0 : j1 + 1] += w * np.maximum(0.0, 1.0 - np.abs(tt - x) / width)

    integrand = f * np.exp(-2j * math.pi * k * t)
    lhs = np.trapezoid(integrand, dx=h) / vol

    if k == 0.0:
        kernel_hat = width
    else:
        arg = math.pi * k * width
        kernel_hat = width * (math.sin(arg) / arg) ** 2
    rhs = kernel_hat * fb_coefficient(mu, float(k), shape, R)
    return abs(lhs - rhs)


def boundary_fraction(shape: str, R: float, r_max: float) -> float:
    """Relative volume of the r_max-boundary of the averaging interval.

    Closed form for intervals: the outer collar always has length
    2 * r_max, the inner one saturates at the interval length.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    L = averaging_vol(shape, R)
    return (2.0 * r_max + min(2.0 * r_max, L)) / L
