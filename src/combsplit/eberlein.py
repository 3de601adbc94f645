"""Finite-volume averaged convolutions, pair correlations and FB scans.

Everything here is a finite-R approximant: combs are restricted to an
averaging interval, convolved, and divided by the interval volume.  The
first factor is restricted to the reflected interval, which coincides with
the usual recipe for symmetric intervals and is the consistent extension
for one-sided ones.  One kernel backs the convolution: each factor splits
into its weight levels, sum_v v * 1_{S_v}, so every atom is a short sum of
int64 pair counts N_ij(s) times level products.  The counts come from bit
rows per lag when both combs live on the integers with few levels, and
otherwise from a pair sweep over exact keys that works block by block, so
its memory does not grow with the pair count.

Correlation atoms and FB coefficients share one exact accumulator (a long
accumulator after Kulisch & Miranker, binned by exponent as in Demmel &
Hida).  A finite double is an int64 mantissa M, |M| < 2**53, times
2**(e - 1126), with e = frexp's exponent + 1073 in [0, 2098).  M splits
into a 27-bit high and a 26-bit low limb; each limb times its int64 count
is added with np.add.at into a cell (group, part, e), where a part is the
real or imaginary half of a complex product.  Only the nonzero cells are
combined as Python ints, and each group is rounded once by int / int, so
every atom and every FB value is correctly rounded and reruns are
bit-identical.  A complex product is formed from separately rounded real
products, never from fused multiply-adds, and a non-finite product or sum
raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combs import WeightedComb, _encode, linear_combine, reflect_conjugate
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
]


class RangeError(ValueError):
    """A comb does not cover the interval a kernel needs."""


# The pair sweep forms at most PAIR_BLOCK pairs at a time and keeps at most
# FOLD_CELLS (key, level pair) counts before it sums them exactly, so its
# memory is bounded (about 80 MiB) whatever the pair count; the exact
# accumulator likewise takes at most FOLD_CELLS terms at a time.
PAIR_BLOCK = 1 << 16
FOLD_CELLS = 1 << 18
# Integer supports use bit rows up to this many weight-level pairs.  The
# rows take about (x levels + 4 * y levels + level pairs / 8) bytes per site,
# y being the factor with fewer levels, so at most 76 here.  At 64 level
# pairs on 2e5 sites with r_max = 20, the rows took 0.03-0.06 s and the pair
# sweep 0.03 s at 10% density, 2.0 s at full; at 256 level pairs and 10%
# density the sweep was faster (0.04 against 0.12 s).
ROW_LEVEL_PAIRS = 64
_NOT_FINITE = "weights, their products and sums must be finite"


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


def averaging_vol(shape: str, R: float) -> float:
    # not used by the package; bench/tests/test_spans.py calls it
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
    r_max : only atoms of the result with |distance| <= r_max are kept;
        it must be finite and nonnegative.
    variant : "both" or "one".

    Returns
    -------
    WeightedComb on the coverage [-r_max, r_max], with weight at s equal to
    the sum of mu(x) * nu(y) over the admitted pairs with x + y = s, divided
    by vol(A).

    Raises
    ------
    RangeError when a factor's coverage does not contain the interval its
    restriction needs; nothing is truncated silently.  ValueError for an
    r_max that is negative, infinite or NaN.
    """
    if variant not in ("both", "one"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.0 <= r_max < math.inf:
        raise ValueError(f"r_max must be finite and nonnegative, got {r_max!r}")
    spec = AveragingSpec(shape, (R,))
    lo, hi = spec.interval(R)
    vol = spec.vol(R)

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

    dtype = np.result_type(wx.dtype, wy.dtype, np.float64)
    coverage = (-r_max, r_max)
    if len(kx) == 0 or len(ky) == 0:
        empty = np.empty((0, 2), dtype=np.int64)
        return WeightedComb(empty, np.empty(0, dtype=dtype), coverage)

    # atom s is the sum of count * vx[i] * vy[j] over its cells (s, i, j);
    # products are taken in dtype, at least double precision
    vx, lx = _levels(wx)
    vy, ly = _levels(wy)
    vx, vy = vx.astype(dtype), vy.astype(dtype)
    integer = not (kx[:, 1].any() or ky[:, 1].any())
    if integer and len(vx) * len(vy) <= ROW_LEVEL_PAIRS:
        tallies = [_count_bits(kx[:, 0], lx, len(vx), ky[:, 0], ly, len(vy), r_max)]
    else:
        tallies = _count_pairs(kx, lx, ky, ly, r_max)
    keys, sums = _exact_sums(tallies, vx, vy)
    keep = sums.any(axis=1)
    keys, sums = keys[keep], sums[keep]
    order = np.argsort(embed_array(keys[:, 0], keys[:, 1]), kind="stable")
    # divide real and imaginary parts separately: numpy's complex division
    # multiplies by a reciprocal and would round twice
    quotient = (sums[order] / vol).view(dtype).ravel()
    return WeightedComb(keys[order], quotient, coverage)


def _levels(weights):
    # distinct weights, sorted, and each atom's index; hashing beats a sort
    values = np.sort(np.unique_values(weights))
    return values, np.searchsorted(values, weights)


def _count_bits(mx, lx, nx, my, ly, ny, r_max):
    # Integer supports: one bit row per weight level.  Per lag s, the pairs
    # x + y = s of a level pair are the popcount of an x row AND a shifted y
    # row.  Eight copies of the y rows, shifted by 0..7 bits, make every
    # shift a byte offset; the x rows fill 64-bit words.
    if ny > nx:  # copy the factor with fewer levels
        keys, j, i, count = _count_bits(my, ly, ny, mx, lx, nx, r_max)
        return keys, i, j, count
    x0, x1, y0, y1 = int(mx[0]), int(mx[-1]), int(my[0]), int(my[-1])
    r = math.floor(r_max + 1e-9)
    s_hi = min(r, x1 + y1)
    lags = np.arange(max(-r, x0 + y0), s_hi + 1)
    a = np.zeros((nx, (x1 - x0) // 64 * 64 + 64), dtype=bool)
    a[lx, mx - x0] = True
    a = np.packbits(a, axis=1)
    # the y rows reversed, behind pad zeros: y = s - x sits in column
    # pad + y1 - y = (x - x0) + d with offset d = pad + x0 + y1 - s >= 0
    pad = max(0, s_hi - x0 - y1)
    b = np.zeros((ny, pad + y1 - y0 + 8 * a.shape[1]), dtype=bool)
    b[ly, pad + y1 - my] = True
    shifted = [np.packbits(b[:, q:], axis=1) for q in range(8)]
    counts = np.empty((len(lags), nx, ny), dtype=np.int64)
    for c, s in enumerate(lags.tolist()):
        d = pad + x0 + y1 - s
        window = shifted[d % 8][:, d // 8 : d // 8 + a.shape[1]]
        words = (a[:, None, :] & window[None, :, :]).view(np.uint64)
        counts[c] = np.bitwise_count(words).sum(axis=2, dtype=np.int64)
    lag, i, j = np.nonzero(counts)
    keys = np.stack([lags[lag], np.zeros_like(lag)], axis=1)
    return keys, i, j, counts[lag, i, j]


def _count_pairs(kx, lx, ky, ly, r_max):
    # Any supports: for every x-atom the admissible y-atoms form a contiguous
    # window of the sorted nu support.  Pairs are formed at most PAIR_BLOCK
    # at a time (one x-atom may exceed it) and tallied block by block; the
    # tallies are merged and handed on once they hold more than FOLD_CELLS
    # cells, and at the end.
    px = embed_array(kx[:, 0], kx[:, 1])
    py = embed_array(ky[:, 0], ky[:, 1])
    lo_idx = np.searchsorted(py, -r_max - px - 1e-9, side="left")
    hi_idx = np.searchsorted(py, r_max - px + 1e-9, side="right")
    per_x = hi_idx - lo_idx
    ends = np.cumsum(per_x)
    starts = ends - per_x
    a, pending = 0, []
    while a < len(px):
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + PAIR_BLOCK, side="right")))
        i_rep = np.repeat(np.arange(a, b), per_x[a:b])
        j_rep = np.arange(starts[a], ends[b - 1]) - np.repeat(starts[a:b] - lo_idx[a:b], per_x[a:b])
        # the eps guard above may admit a hair beyond r_max; cut exactly here
        keep = np.abs(px[i_rep] + py[j_rep]) <= r_max + 1e-9
        i_rep, j_rep = i_rep[keep], j_rep[keep]
        ones = np.ones(len(i_rep), dtype=np.int64)
        pending.append(_tally(kx[i_rep] + ky[j_rep], lx[i_rep], ly[j_rep], ones))
        a = b
        if a == len(px) or sum(len(keys) for keys, *_ in pending) > FOLD_CELLS:
            yield _tally(*map(np.concatenate, zip(*pending)))
            pending = []


def _tally(keys, i, j, count):
    # One row per distinct cell (key, i, j), with the counts of its rows
    # added.  Keys and level pairs are ranked first, so a cell index stays
    # below the square of the row count and cannot overflow.  (Asking for
    # counts makes np.unique sort; its hash table is slow on key codes,
    # whose low 32 bits repeat.)
    codes = _encode(keys)
    atoms = np.unique_counts(codes).values
    atom = np.searchsorted(atoms, codes)
    n_j = int(j.max(initial=0)) + 1
    level_pair = i * n_j + j
    level_pairs = np.unique_counts(level_pair).values
    cell = atom * len(level_pairs) + np.searchsorted(level_pairs, level_pair)
    cells = np.unique_counts(cell).values
    total = np.zeros(len(cells), dtype=np.int64)
    np.add.at(total, np.searchsorted(cells, cell), count)
    atom_keys = np.empty((len(atoms), 2), dtype=np.int64)
    atom_keys[atom] = keys
    atom, pair = np.divmod(cells, len(level_pairs))
    return atom_keys[atom], *np.divmod(level_pairs[pair], n_j), total


def _exact_sums(tallies, vx, vy):
    # Per atom, the exact sum of count * vx[i] * vy[j] over its cells, rounded
    # once; each tally is folded into the limb rows of the atoms seen so far.
    keys, done = np.empty((0, 2), dtype=np.int64), None
    for new, i, j, count in tallies:
        keys = np.concatenate([new, keys])
        codes, first, atom = np.unique(_encode(keys), return_index=True, return_inverse=True)
        if done is not None:  # the rows so far move to their atoms' new places
            moved = np.zeros((len(codes), *done[1].shape[1:]), dtype=np.int64)
            moved[atom[len(new) :]] = done[1]
            done = done[0], moved
        done = _limb_rows(atom[: len(new)], vx[i], vy[j], count, len(codes), done)
        keys = keys[first]
    return keys, _rounded(*done)


def _limb_rows(group, x, y, count, n_groups, done=None):
    """The exponents e that occur and the int64 limb rows (n_groups, parts,
    exponents, 2) of the exact sums of count * x * y per group, as the module
    docstring describes; done = (exponents, rows) adds rows of the same groups."""
    if len(x) > FOLD_CELLS:  # block by block, so that temporaries stay bounded
        for a in range(0, len(x), FOLD_CELLS):
            at = slice(a, a + FOLD_CELLS)
            done = _limb_rows(group[at], x[at], y[at], count[at], n_groups, done)
        return done
    if np.iscomplexobj(x) or np.iscomplexobj(y):  # rounded real products, unfused
        xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
        parts = np.stack([xr * yr - xi * yi, xr * yi + xi * yr], axis=1)
    else:
        parts = (x * y)[:, None]
    if not np.all(np.isfinite(parts)):
        raise ValueError(_NOT_FINITE)
    mantissa, exponent = np.frexp(parts)
    m, e = (mantissa * 2.0**53).astype(np.int64), exponent + 1073
    present = np.zeros(2098, dtype=bool)
    present[e] = True
    if done is not None:
        present[done[0]] = True
    exponents, column = np.flatnonzero(present), np.cumsum(present) - 1
    n_parts = parts.shape[1]
    rows = np.zeros((n_groups, n_parts, len(exponents), 2), dtype=np.int64)
    cell = ((group[:, None] * n_parts + np.arange(n_parts)) * len(exponents) + column[e]).ravel()
    # a cell sums less than 2**27 times the atoms of one factor (or of the
    # comb), so it cannot wrap below 2**36 atoms
    for limb, value in zip(rows.reshape(-1, 2).T, (m >> 26, m & (2**26 - 1))):
        np.add.at(limb, cell, (value * count[:, None]).ravel())
    if done is not None:
        rows[:, :, column[done[0]]] += done[1]
    return exponents, rows


def _rounded(exponents, rows):
    # Each group and part's nonzero cells as one exact Python int, rounded once
    # by int / int, which Python rounds correctly.
    sums = np.zeros(rows.shape[:2])
    try:
        for g, p in zip(*np.nonzero(rows.any(axis=(2, 3)))):
            cells = zip(exponents.tolist(), rows[g, p].tolist())
            sums[g, p] = sum(((high << 26) + low) << e for e, (high, low) in cells) / 2**1126
    except OverflowError:
        raise ValueError(_NOT_FINITE) from None
    return sums


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

    Module points are evaluated through the 128-bit fixed-point phases of
    frac_phases (each within half an ulp plus 2^-96 of frac(k*x)); generic
    real k uses the direct product with the embedded positions.  The sums
    of the real and imaginary parts are correctly rounded, and a complex
    weight's product is formed from separately rounded real products.
    This is the one-R case of fb_scan.
    """
    return _fb_values(mu, k, AveragingSpec(shape, (R,)))[0]


def _fb_values(
    mu: WeightedComb, k: FourierModulePoint | float, spec: AveragingSpec
) -> list[complex]:
    """FB coefficients of mu at k for every R of spec, from one phase pass.

    The comb is restricted to the largest interval once and the products
    are formed once.  Each atom's limbs are added once, into the bin of the
    first R that holds it, and a cumsum over the bins gives every R its
    exact sum, rounded once, so every value equals a separate computation
    at that R.  A non-finite product or sum raises ValueError.
    """
    for R in spec.R_list:
        lo, hi = spec.interval(R)
        _require(
            mu.coverage[0] <= lo and mu.coverage[1] >= hi,
            f"comb covers {mu.coverage}, needs [{lo}, {hi}]",
        )
    pos, keys, weights = _restrict_arrays(mu, *spec.interval(spec.R_list[-1]))
    if isinstance(k, FourierModulePoint):
        if k.is_zero():
            phase_factors = np.ones(len(keys), dtype=complex)
        else:
            phase_factors = np.exp(-2j * math.pi * frac_phases(k, keys[:, 0], keys[:, 1]))
    else:
        if not math.isfinite(k):
            raise ValueError(f"wave number must be finite, got {k!r}")
        phase_factors = np.exp(-2j * math.pi * float(k) * pos)
    # atom t goes to the bin of the first R that holds it, the first R with
    # j > t and i <= t; the intervals nest, so a cumsum over bins sums each R
    intervals = [spec.interval(R) for R in spec.R_list]
    i = np.searchsorted(pos, [lo - 1e-12 for lo, _ in intervals], side="left")
    j = np.searchsorted(pos, [hi + 1e-12 for _, hi in intervals], side="right")
    atom = np.arange(len(pos))
    bins = np.maximum(np.searchsorted(j, atom, side="right"), np.searchsorted(-i, -atom))
    exponents, rows = _limb_rows(bins, weights, phase_factors, np.ones_like(bins), len(intervals))
    sums = _rounded(exponents, np.cumsum(rows, axis=0)).tolist()
    return [complex(re / spec.vol(R), im / spec.vol(R)) for R, (re, im) in zip(spec.R_list, sums)]


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

    Each k's phases are computed once, at the largest R.  Each row also
    carries the Cauchy difference against the previous R, the finite-size
    stand-in for convergence of the averaging limit.
    """
    rows: list[FBRow] = []
    for k in K:
        prev: complex | None = None
        for R, value in zip(spec.R_list, _fb_values(mu, k, spec)):
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
) -> list[OrthogonalityRow]:
    """Sup norms of the two finite cross correlations along the R grid.

    Both numbers should shrink with R when the splitting is orthogonal in
    the averaged sense.  They are equal by construction, so each R takes
    one kernel call, whose sup norm fills both fields.
    """
    rows = []
    for R in spec.R_list:
        # Both factors are restricted to the same interval, so
        # c_nu_omega(s) = conj(c_omega_nu(-s)) atom for atom: each atom is the
        # correctly rounded sum of the same products, complex ones included,
        # since _limb_rows forms those from separately rounded real products.
        sup = pair_correlation(omega, nu, spec.shape, R, r_max).sup_norm()
        rows.append(OrthogonalityRow(R, sup, sup))
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

    holds atom-for-atom up to final rounding; the largest violation of
    linear_combine's atomwise difference is reported as bilinear_residual.
    zero_fb_max is the largest FB coefficient of the zero part over the
    supplied wave numbers, from fb_scan on the symmetric interval of radius
    r_max (so normalized by the support length 2 * r_max, with the exact
    module-point phases): the finite proxy for a null FB spectrum of the
    continuous-part correlation.
    """
    omega_i, nu_i = split_i
    omega_j, nu_j = split_j
    args = (shape, R, r_max, "both")
    gamma = pair_correlation(comb_i, comb_j, *args)
    s_part = pair_correlation(omega_i, omega_j, *args)
    zero_part = pair_correlation(nu_i, nu_j, *args)
    cross_ij = pair_correlation(omega_i, nu_j, *args)
    cross_ji = pair_correlation(nu_i, omega_j, *args)

    residual = linear_combine(
        [(1, gamma), (-1, s_part), (-1, zero_part), (-1, cross_ij), (-1, cross_ji)]
    ).sup_norm()
    cross_sup = max(cross_ij.sup_norm(), cross_ji.sup_norm())
    zero_fb = 0.0
    if module_k:
        rows = fb_scan(zero_part, module_k, AveragingSpec("symmetric", (r_max,)))
        zero_fb = max(abs(row.value) for row in rows)
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
