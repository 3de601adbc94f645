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
its memory does not grow with the pair count.  Each atom's sum is formed
exactly and rounded once, so every atom is correctly rounded and reruns are
bit-identical.
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


# The pair sweep forms at most PAIR_BLOCK pairs at a time and keeps at most
# FOLD_CELLS (key, level pair) counts before it sums them exactly, so its
# memory is bounded (about 80 MiB) whatever the pair count.
PAIR_BLOCK = 1 << 16
FOLD_CELLS = 1 << 18
# Integer supports use bit rows up to this many weight-level pairs.  The
# rows take about (x levels + 4 * y levels + level pairs / 8) bytes per site,
# y being the factor with fewer levels, so at most 76 here.  At 64 level
# pairs on 2e5 sites with r_max = 20, the rows took 0.03-0.06 s and the pair
# sweep 0.03 s at 10% density, 2.0 s at full; at 256 level pairs and 10%
# density the sweep was faster (0.04 against 0.12 s).
ROW_LEVEL_PAIRS = 64
_NOT_FINITE = "correlation weights, their products and sums must be finite"


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

    # atom s is the sum of count * vx[i] * vy[j] over its cells (s, i, j)
    vx, lx = _levels(wx)
    vy, ly = _levels(wy)
    integer = not (kx[:, 1].any() or ky[:, 1].any())
    if integer and len(vx) * len(vy) <= ROW_LEVEL_PAIRS:
        tallies = [_count_bits(kx[:, 0], lx, len(vx), ky[:, 0], ly, len(vy), r_max)]
    else:
        tallies = _count_pairs(kx, lx, ky, ly, r_max)
    keys, sums = _exact_sums(tallies, vx, vy, dtype)
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
    # at a time (one x-atom may exceed it) and tallied block by block.
    px = embed_array(kx[:, 0], kx[:, 1])
    py = embed_array(ky[:, 0], ky[:, 1])
    lo_idx = np.searchsorted(py, -r_max - px - 1e-9, side="left")
    hi_idx = np.searchsorted(py, r_max - px + 1e-9, side="right")
    per_x = hi_idx - lo_idx
    ends = np.cumsum(per_x)
    starts = ends - per_x
    a = 0
    while a < len(px):
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + PAIR_BLOCK, side="right")))
        i_rep = np.repeat(np.arange(a, b), per_x[a:b])
        j_rep = np.arange(starts[a], ends[b - 1]) - np.repeat(starts[a:b] - lo_idx[a:b], per_x[a:b])
        # the eps guard above may admit a hair beyond r_max; cut exactly here
        keep = np.abs(px[i_rep] + py[j_rep]) <= r_max + 1e-9
        i_rep, j_rep = i_rep[keep], j_rep[keep]
        ones = np.ones(len(i_rep), dtype=np.int64)
        yield _tally(kx[i_rep] + ky[j_rep], lx[i_rep], ly[j_rep], ones)
        a = b


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


def _exact_sums(tallies, vx, vy, dtype):
    # Per atom, the sum of count * vx[i] * vy[j] over its cells, exact and
    # rounded once.  Tallies are merged and folded into the exact atom sums
    # each time they hold more than FOLD_CELLS cells, and once at the end.
    done, pending = None, []
    for tally in tallies:
        pending.append(tally)
        if sum(len(keys) for keys, *_ in pending) > FOLD_CELLS:
            done, pending = _fold(pending, done, vx, vy, dtype), []
    keys, sums, e0 = _fold(pending, done, vx, vy, dtype) if pending else done
    # Python's int / int is correctly rounded
    try:
        return keys, np.array([[int(v) / 2**-e0 for v in row] for row in sums]).reshape(sums.shape)
    except OverflowError:
        raise ValueError(_NOT_FINITE) from None


def _fold(tallies, done, vx, vy, dtype):
    # Per key, the sums done so far plus each new cell's count * product, as
    # Python ints over 2**-e0: a finite double is an int64 mantissa times
    # 2**(exponent - 53).
    keys, i, j, count = _tally(*map(np.concatenate, zip(*tallies)))
    products = vx[i].astype(dtype) * vy[j]
    if not np.all(np.isfinite(products)):
        raise ValueError(_NOT_FINITE)
    if dtype.kind == "c":
        parts = np.stack([products.real, products.imag], axis=1)
    else:
        parts = products[:, None]
    mantissa, exponent = np.frexp(parts)
    e0 = int(exponent.min(initial=0)) - 53
    terms = (mantissa * 2.0**53).astype(np.int64).astype(object) * count[:, None].astype(object)
    terms <<= (exponent - 53 - e0).astype(object)
    if done is not None:
        done_keys, done_sums, done_e0 = done
        keys = np.concatenate([keys, done_keys])
        terms = np.concatenate([terms << max(0, e0 - done_e0), done_sums << max(0, done_e0 - e0)])
        e0 = min(e0, done_e0)
    codes, first, atom = np.unique(_encode(keys), return_index=True, return_inverse=True)
    sums = np.zeros((len(codes), terms.shape[1]), dtype=object)
    np.add.at(sums, atom, terms)
    return keys[first], sums, e0


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
    spec = AveragingSpec(shape, (R,))
    lo, hi = spec.interval(R)
    _require(
        mu.coverage[0] <= lo and mu.coverage[1] >= hi,
        f"comb covers {mu.coverage}, needs [{lo}, {hi}]",
    )
    pos, keys, weights = _restrict_arrays(mu, lo, hi)
    vol = spec.vol(R)
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
    spec = AveragingSpec(shape, (R,))
    lo, hi = spec.interval(R)
    vol = spec.vol(R)
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
    L = AveragingSpec(shape, (R,)).vol(R)
    return (2.0 * r_max + min(2.0 * r_max, L)) / L
