"""Finite-volume averaged convolutions, pair correlations and FB scans.

Everything here is a finite-R approximant: combs are restricted to an
averaging interval, convolved, and divided by the interval volume.  The
first factor is restricted to the reflected interval, which coincides with
the usual recipe for symmetric intervals and is the consistent extension
for one-sided ones.  One kernel backs the convolution: each comb is stored
as its weight levels, sum_v v * 1_{S_v}, so every atom is a short sum of
int64 pair counts N_ij(s) times level products, and one pair sweep
(_count_pairs) counts them, whatever the supports.  The sweep takes the
first factor's atoms a chunk at a time, with the positions of only the
chunk and of the atoms of the second factor it reaches, and forms the
chunk's pairs block by block, so its memory grows with neither the pair
count nor the factors.  It adds the combs' int64 key codes (the code of a
sum of keys is the sum of their codes, zroot5._codes) and tallies a block's
cells (code, level pair) by sorting one int64 per pair.  A restriction to
an interval is an index range found by binary search over single keys'
positions, so no kernel builds the positions of a whole comb; that search
and the coverage check live in combs (_bounds, _covers).

The lattice rows of the Thue-Morse and lattice-gas suites are counted from
bit rows instead, by one entry (_lattice_correlations) that weighs one
labelled tally of a row per pair of combs.  A bit row holds 64 sites per
word; it is built (_bit_rows) and read back (_row_sites) here only, and one
kernel (_shift_counts) counts a row's pairs per lag as popcounts of its
words AND its words shifted across word boundaries.

Every averaged value is finished one way: its terms as exact Python ints
(_units), added as ints, divided by vol's integer ratio and rounded once
(_quotient), so it is correctly rounded and reruns are bit-identical.  A
correlation atom is the sum of count * vx[i] * vy[j] over its tallied
cells, over vol; an FB coefficient is sum_v v * S_v / vol over the (real)
weight levels v, with S_v the exact sum of the atoms' Q62 characters at
level v (_characters, each within 2**-51 of exp(-2 pi i frac(k x))).  A
non-finite weight, product or quotient raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .combs import RangeError, WeightedComb, _bounds, _covers, _search, reflect_conjugate
from .zroot5 import FourierModulePoint, _char_table, _codes, _key_offsets, _key_parts
from .zroot5 import _phase_words, embed_array
from .zroot5 import frac_phases  # noqa: F401  (eberlein.frac_phases stays importable)

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


# The pair sweep takes PAIR_BLOCK >> 3 atoms of the first factor at a time,
# forms at most PAIR_BLOCK pairs at a time and keeps at most FOLD_CELLS
# (key, level pair) counts before it hands them on as one tally; the exact
# sums take a tally's cells PAIR_BLOCK at a time, and an FB scan FB_BLOCK
# atoms.  So memory is bounded whatever the pair count and the factors'
# size, and blocks this small keep their temporaries in cache.  On 3,000
# atoms with a level each, r_max = 60, whole tallies of Python ints peaked
# at 259 MB and cells PAIR_BLOCK at a time at 91 MB.
# On the twisted chain (2-core x86 machine, interleaved medians of 9 at
# R = 1e5 and 5 at R = 1e6), orthogonality took 50, 51 and 65 ms at R = 1e5
# and 416, 361 and 401 ms at R = 1e6 with pair blocks of 2**14, 2**15 and
# 2**16; the FB scan took 69, 61 and 63 ms at R = 1e5 with FB blocks of
# 2**13, 2**14 and 2**15 (525, 513 and 464 ms at R = 1e6).  On key codes
# (two series, medians of 9 at R = 1e5 and of 5 and 7 at R = 1e6),
# orthogonality took 38/44, 38/39, 38/41 and 37/48 ms at R = 1e5 and 264/306,
# 340/291, 259/315 and 262/309 ms at R = 1e6 with FOLD_CELLS of 2**16, 2**17,
# 2**18 and 2**19: the same within noise.  An FB block's temporaries set
# the peak of that chain at R = 1e5 (the character kernel alone held 1.9 MB
# at 2**14 atoms): with blocks of 2**13 the peak RSS of bench/pipeline.py
# read 35.80-36.04 MB against 36.25-36.41 MB with 2**14 (medians of 3, R =
# 100327, 100761 and 100962), for FB scans of 43.4 against 41.9 ms at R =
# 1e5 and 399 against 376 ms at R = 1e6 (interleaved medians of 14).
PAIR_BLOCK = 1 << 15
FOLD_CELLS = 1 << 18
FB_BLOCK = 1 << 13
# A bit row, of a Thue-Morse word or a lattice gas, is built and read back
# SITE_BLOCK sites at a time (whole words, at least one) and counted
# WORD_BLOCK words at a time.
WORD_BLOCK = 1 << 14
SITE_BLOCK = 1 << 16
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


def _restrict_arrays(comb: WeightedComb, lo: float, hi: float):
    i, j = _bounds(comb, lo, hi)
    return comb.codes[i:j], comb.level[i:j]


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
    tallies, vol = _count(mu, nu, shape, R, r_max, variant)
    return _averaged_comb(tallies, mu.levels, nu.levels, vol, (-r_max, r_max))


def _count(mu, nu, shape, R, r_max, variant):
    # eberlein_convolve's checks and restriction, and the tallies (key code,
    # i, j, count) of the factors' pairs per level pair (i, j), with vol(A)
    if variant not in ("both", "one"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.0 <= r_max < math.inf:
        raise ValueError(f"r_max must be finite and nonnegative, got {r_max!r}")
    spec = AveragingSpec(shape, (R,))
    lo, hi = spec.interval(R)

    _covers(mu, -hi, -lo, "first factor", f" for R={R}")
    if variant == "both":
        nu_lo, nu_hi = lo, hi
    else:
        nu_lo, nu_hi = lo - r_max, hi + r_max
    _covers(nu, nu_lo, nu_hi, "second factor", f" for R={R}")

    cx, lx = _restrict_arrays(mu, -hi, -lo)
    cy, ly = _restrict_arrays(nu, nu_lo, nu_hi)
    return _count_pairs(cx, lx, cy, ly, len(nu.levels), r_max), spec.vol(R)


def _averaged_comb(tallies, vx, vy, vol, coverage) -> WeightedComb:
    """The comb of the atoms sum(count * vx[i] * vy[j]) / vol, rounded once,
    over the tallied cells (key, i, j, count), atoms of weight 0 and atoms
    off coverage dropped, sorted by position.  Every correlation, whatever
    counted its pairs, ends here.  The products are taken in double
    precision; each tally is folded into the exact sums of the atoms seen so
    far as it arrives, so memory grows with the atoms out, not the tallies."""
    vx, vy = vx.astype(np.float64), vy.astype(np.float64)
    codes, sums = np.empty(0, dtype=np.int64), np.zeros(0, dtype=object)
    for new, i, j, count in tallies:
        codes, atom = np.unique(np.concatenate([new, codes]), return_inverse=True)
        # the sums so far move to their atoms' new places
        moved = np.zeros(len(codes), dtype=object)
        moved[atom[len(new) :]] = sums
        atom = atom[: len(new)]
        for a in range(0, len(new), PAIR_BLOCK):
            at = slice(a, a + PAIR_BLOCK)
            np.add.at(moved, atom[at], _units(vx[i[at]] * vy[j[at]]) * count[at].astype(object))
        sums = moved
    # the atoms on the coverage by their own positions, as linear_combine
    # keeps them: the pair sweep admits lags up to a hair beyond it
    pos = embed_array(*_key_parts(codes))
    quotient = _quotient(sums, 1074, vol).astype(np.float64)
    keep = (quotient != 0) & (pos >= coverage[0]) & (pos <= coverage[1])
    return WeightedComb.from_weights(codes[keep], quotient[keep], coverage)


def _quotient(units, shift, vol):
    # units * 2**-shift / vol rounded once, units * d / (n << shift) with n / d
    # = vol, for an exact int or an object array of them; ValueError past a double
    n, d = vol.as_integer_ratio()
    try:
        return units * d / (n << shift)
    except OverflowError:
        raise ValueError(_NOT_FINITE) from None


def _units(values):
    """Finite doubles as exact Python ints in units of 2**-1074, an object
    array of values' shape; ValueError for a non-finite value.  A normal
    double is M * 2**(e - 53), e = frexp's exponent, with M = value *
    2**(53 - e) a whole int64, so it is M << (e + 1021) units; a subnormal
    is value * 2**1074 units, a whole int64 too."""
    if not np.all(np.isfinite(values)):
        raise ValueError(_NOT_FINITE)
    shift = np.maximum(np.frexp(values)[1] + 1021, 0)
    whole = np.ldexp(values, 1074 - shift).astype(np.int64).astype(object)
    return whole << shift.astype(object)


def _weighed(tallies, vol, r_max, weighings) -> list[WeightedComb]:
    # per level pair (vx, vy) of weighings, the averaged comb of the tallies on [-r_max, r_max]
    return [_averaged_comb(tallies, vx, vy, vol, (-r_max, r_max)) for vx, vy in weighings]


def _lattice_correlations(row, n, r_max, vol, weighings) -> list[WeightedComb]:
    """Per (vx, vy) of weighings, the correlation on [-r_max, r_max], over
    vol, of the combs on the n sites M of the bit row row (laid out as
    _bit_rows makes it) that weigh the set sites P by vx[0] and vy[0] and the
    sites of M \\ P by vx[1] and vy[1]: the comb pair_correlation gives on
    them, atom for atom, when both are restricted to M.  The pairs are
    counted once, in one labelled tally (_lattice_tally), and each weighing
    only rounds its sums."""
    return _weighed([_lattice_tally(row, n, r_max)], vol, r_max, weighings)


def _bit_rows(n_sites, block):
    """A bit row of n_sites sites from block(a, b), the bools of sites
    a..b-1: site t is bit t % 64 of word t // 64, the words little-endian
    '<u8', and the bits past n_sites are 0.  block is called once per block
    of SITE_BLOCK sites (whole words), in site order, so no bool row over
    every site is made."""
    words = np.zeros(-(-n_sites // 64), dtype="<u8")
    octets, step = words.view(np.uint8), 64 * max(1, SITE_BLOCK // 64)
    for a in range(0, n_sites, step):
        b = min(a + step, n_sites)
        octets[a // 8 : -(-b // 8)] = np.packbits(block(a, b), bitorder="little")
    return words


def _row_sites(row, n_sites):
    """The set sites t of a bit row of n_sites sites (laid out as _bit_rows
    makes it), ascending, as int64 arrays of SITE_BLOCK sites at a time."""
    octets, step = row.view(np.uint8), 64 * max(1, SITE_BLOCK // 64)
    for a in range(0, n_sites, step):
        bits = np.unpackbits(octets[a // 8 : (a + step) // 8], count=min(step, n_sites - a),
                             bitorder="little")
        sites = np.flatnonzero(bits)
        sites += a
        yield sites


def _shift_counts(row, offsets):
    """counts[c] = #{t : sites t and t + offsets[c] of the bit row row are
    set} (laid out as _bit_rows makes it), offsets >= 0.  Shifted down by
    d = 64 q + r sites, word w of the row is row[w + q] >> r | row[w + q +
    1] << (64 - r), so the row is not copied per shift; the pairs are the
    popcounts of its words AND those.  The words are taken WORD_BLOCK at a
    time, so temporaries stay bounded."""
    counts = np.zeros(len(offsets), dtype=np.int64)
    for w in range(0, len(row), WORD_BLOCK):
        words = row[w : w + WORD_BLOCK]
        for c, d in enumerate(offsets.tolist()):
            q, r = divmod(d, 64)
            window = row[w + q : w + q + len(words)] >> r  # the words past the row's end are 0
            if r:
                high = row[w + q + 1 : w + q + 1 + len(window)] << (64 - r)
                window[: len(high)] |= high
            counts[c] += np.bitwise_count(words[: len(window)] & window).sum(dtype=np.int64)
    return counts


def _lattice_tally(row, n, r_max):
    """The tally (key code, i, j, count) of the pairs (x, y) of the n sites M
    of the bit row row (laid out as _bit_rows makes it) per lag s = y - x =
    -L..L, L = min(r_max, n - 1), and label pair (i, j), label 0 for P, the
    set sites, and 1 for M \\ P.  With N_AB(s) the pairs of A x B at lag s,
    N_PP(s) is the popcount of the row AND the row shifted by s
    (_shift_counts), N_PM(s) is |P| less the set sites among the last s
    sites (the first |s| when s < 0), N_MP(s) = N_PM(-s) and N_MM(s) =
    n - |s|; the labels' counts follow by inclusion-exclusion.  Only the
    first and last L sites are unpacked."""
    lag = min(int(r_max), n - 1)  # no two sites lie farther apart
    lags = np.arange(-lag, lag + 1)
    n_pp = np.empty(len(lags), dtype=np.int64)
    n_pp[lag:] = _shift_counts(row, np.arange(lag + 1))
    n_pp[:lag] = n_pp[: lag : -1]
    size = n_pp[lag]
    octets, first = row.view(np.uint8), (n - lag) // 8  # the byte of site n - lag
    head = np.cumsum(np.unpackbits(octets, count=lag, bitorder="little"), dtype=np.int64)
    ends = np.unpackbits(octets[first:], count=n - 8 * first, bitorder="little")
    tail = np.cumsum(ends[n - lag - 8 * first :][::-1], dtype=np.int64)
    n_pm = np.concatenate([size - head[::-1], [size], size - tail])
    n_mp, n_mm = n_pm[::-1], n - np.abs(lags)
    count = np.concatenate([n_pp, n_pm - n_pp, n_mp - n_pp, n_mm - n_pm - n_mp + n_pp])
    i, j = np.repeat([[0, 0, 1, 1], [0, 1, 0, 1]], len(lags), axis=1)
    lags = np.tile(lags, 4)
    return _codes(lags, np.zeros_like(lags)), i, j, count  # the codes of the keys (lag, 0)


def _count_pairs(cx, lx, cy, ly, n_j, r_max):
    # Any supports: for every x-atom the admissible y-atoms form a contiguous
    # window of the sorted nu support.  The x-atoms are taken PAIR_BLOCK >> 3
    # at a time, with the positions of only the y-atoms their windows reach,
    # found by binary search; within a chunk, pairs are formed at most
    # PAIR_BLOCK at a time (one x-atom may exceed it) as key codes and level
    # pairs, lx[i] * n_j + ly[j], and tallied block by block.  The tallies
    # are merged and handed on once they hold more than FOLD_CELLS cells,
    # and at the end.  A pair's code is the sum of its atoms' codes while
    # the sum key stays in range, so each chunk checks the extremes of its
    # sum keys first.
    if not (len(cx) and len(cy)):
        return
    pending, held, chunk = [], 0, max(PAIR_BLOCK >> 3, 1)
    for c in range(0, len(cx), chunk):
        cc, lc = cx[c : c + chunk], lx[c : c + chunk]
        mx, nx = _key_parts(cc)
        px = embed_array(mx, nx)
        # windows move left as x grows: the last x-atom's starts the reach,
        # the first x-atom's ends it
        y0 = _search(cy, -r_max - px[-1] - 1e-9)
        y1 = _search(cy, r_max - px[0] + 1e-9, "right")
        cw, lw = cy[y0:y1], ly[y0:y1]
        my, ny = _key_parts(cw)
        py = embed_array(my, ny)
        if len(cw):  # ValueError unless the extremes of the chunk's sum keys are in range
            _codes(np.array([mx.min() + my.min(), mx.max() + my.max()]),
                   np.array([nx.min() + ny.min(), nx.max() + ny.max()]))
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
            level_pair = lc[i_rep].astype(np.int64) * n_j + lw[j_rep]
            pending.append(_tally(cc[i_rep] + cw[j_rep], level_pair))
            held += len(pending[-1][0])
            a = b
            if held > FOLD_CELLS:
                yield _merged(pending, n_j)
                pending, held = [], 0
    if pending:
        yield _merged(pending, n_j)


def _merged(pending, n_j):
    # one tally (code, i, j, count) of the block tallies (code, level pair, count)
    codes, level_pair, count = _tally(*map(np.concatenate, zip(*pending)))
    return codes, *np.divmod(level_pair, n_j), count


def _tally(codes, level_pair, count=None):
    # The distinct cells (code, level pair) of the rows, in order, with the
    # counts of their rows added (one per row when count is None).  A cell
    # is one int64, code index * level pairs + level pair index, sorted
    # once.  An index is the offset from the least value, or the rank where
    # offsets could take a cell past 2**62; ranks stay below the row count.
    atom, n_atoms, code_of = _index(codes, 2**62 // (int(level_pair.max(initial=0)) + 1))
    pair, n_pairs, pair_of = _index(level_pair, 2**62 // n_atoms)
    cell = atom * n_pairs + pair
    if count is None:
        cells, total = np.unique_counts(cell)
    else:
        cells, inverse = np.unique(cell, return_inverse=True)
        total = np.zeros(len(cells), dtype=np.int64)
        np.add.at(total, inverse, count)
    atom, pair = np.divmod(cells, n_pairs)
    return code_of(atom), pair_of(pair), total


def _index(values, room):
    # (index, bound, map back) for int64 values: offsets from the least value
    # when they stay below room, else ranks
    lo = int(values.min(initial=0))
    span = int(values.max(initial=0)) - lo + 1
    if span <= room:
        return values - lo, span, lambda index: index + lo
    distinct, rank = np.unique(values, return_inverse=True)
    return rank, len(distinct), distinct.__getitem__


def pair_correlation(
    mu: WeightedComb,
    nu: WeightedComb,
    shape: str,
    R: float,
    r_max: float = 20.0,
    variant: str = "both",
) -> WeightedComb:
    """Averaged correlation: the reflection of mu convolved with nu.

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

    sum_v v * sum chi / vol over the levels v and their atoms, each chi in
    Q62 within 2^-51 of exp(-2 pi i frac(k*x)) (of frac(fl(k*x)) at a float
    k), summed exactly and rounded once.  The one-R case of fb_scan.
    """
    return next(_fb_values(mu, [k], AveragingSpec(shape, (R,))))[1][0]


def _fb_values(
    mu: WeightedComb, K: Sequence[FourierModulePoint | float], spec: AveragingSpec
) -> Iterator[tuple[FourierModulePoint | float, list[complex]]]:
    """Per k of K, k and the FB coefficients of mu for every R of spec.

    The atoms in the largest interval are taken FB_BLOCK at a time, sorted
    by group (bin, level) once for all of K.  Per k, the two int64 limbs of
    their Q62 characters are summed exactly per group; a cumsum over bins
    gives each R its sums, so every value equals a separate computation at
    that R.  A non-finite k, level, k * x or value raises ValueError.
    """
    K = list(K)
    if not K:  # nothing to scan, and nothing to check
        return
    intervals = [spec.interval(R) for R in spec.R_list]
    for lo, hi in intervals:
        _covers(mu, lo, hi, "comb")
    for k in K:
        if not (isinstance(k, FourierModulePoint) or math.isfinite(k)):
            raise ValueError(f"wave number must be finite, got {k!r}")
    # the atoms of each R are i[r] <= t < j[r]; atom t goes to the bin of the
    # first R that holds it, the first R with j > t and i <= t, and since the
    # intervals nest, a cumsum over bins sums each R
    i, j = np.array([_bounds(mu, lo, hi) for lo, hi in intervals]).T
    first, last = int(i[-1]), int(j[-1])
    n_levels = len(mu.levels)
    # per k, limb (high, low) and part (real, imaginary), the sum of each group
    sums = np.zeros((len(K), 2, 2, len(intervals) * n_levels), dtype=np.int64)
    for a in range(first, last, FB_BLOCK):
        atom = np.arange(a, min(a + FB_BLOCK, last))
        bins = np.maximum(np.searchsorted(j, atom, side="right"), np.searchsorted(-i, -atom))
        group = bins * n_levels + mu.level[atom]
        order = np.argsort(group, kind="stable")
        (m, n), group = _key_parts(mu.codes[atom[order]]), group[order]
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        offsets, x = _key_offsets(m, n), embed_array(m, n)
        for q, k in enumerate(K):
            for p, fixed in enumerate(_characters(k, offsets, x)):
                sums[q, 0, p, group[starts]] += np.add.reduceat(fixed >> 31, starts)
                sums[q, 1, p, group[starts]] += np.add.reduceat(fixed & (2**31 - 1), starts)
    # levels in units of 2**-1074 and sums of 2**-62: values over 2**1136 * vol
    units = _units(mu.levels)
    for k, (high, low) in zip(K, sums.reshape(len(K), 2, 2, len(intervals), n_levels)):
        s_re, s_im = (high.cumsum(axis=1).astype(object) << 31) + low.cumsum(axis=1)
        yield k, [complex(_quotient(u, 1136, vol), _quotient(w, 1136, vol))
                  for u, w, vol in zip(s_re @ units, s_im @ units, map(spec.vol, spec.R_list))]


def _characters(k, offsets, x):
    """The Q62 int64 parts of exp(-2 pi i phase), the phase a module point's
    word at the keys of offsets rounded to 64 bits, or frac(fl(k * x)) at
    the positions x: T[j] * (c - i s), j the nearest 256th and c, s degree-6
    and -7 Taylor polynomials at the rest, |theta| <= pi / 256 (truncation
    below 2e-20).  Q62 truncates, exactly for parts of 2**-10 or more."""
    if isinstance(k, FourierModulePoint):
        high, low = _phase_words(k, *offsets)
        word = high + (low >> np.uint64(63))
        index = (word + np.uint64(1 << 55)) >> np.uint64(56)
        theta = (word - (index << np.uint64(56))).view(np.int64) * (2 * math.pi / 2**64)
    else:
        u = float(k) * x * 256  # 256 fl(k * x), exactly
        index = np.rint(u)
        theta = (u - index) * (2 * math.pi / 256)
        if not np.all(np.isfinite(theta)):
            raise ValueError(_NOT_FINITE)
        # from 2**62 up, u is a whole number of turns
        index = np.where(np.abs(index) < 2.0**62, index, 0.0).astype(np.int64) & 255
    t = _char_table()[index.view(np.int64)]
    z = theta * theta
    c1 = z * (-1 / 2 + z * (1 / 24 - z * (1 / 720)))  # cos(theta) - 1
    s = theta * (1 + z * (-1 / 6 + z * (1 / 120 - z * (1 / 5040))))
    re = t.real + (t.real * c1 + t.imag * s)
    im = t.imag + (t.imag * c1 - t.real * s)
    return (re * 2.0**62).astype(np.int64), (im * 2.0**62).astype(np.int64)


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
    for k, values in _fb_values(mu, K, spec):
        prev: complex | None = None
        for R, value in zip(spec.R_list, values):
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
        # Both factors are restricted to the same interval, so c_nu_omega(s) =
        # c_omega_nu(-s) atom for atom: the same exact sum, rounded once.
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
    split_i: tuple[WeightedComb, WeightedComb],
    split_j: tuple[WeightedComb, WeightedComb],
    shape: str,
    R: float,
    r_max: float = 20.0,
    module_k: Sequence[FourierModulePoint | float] = (),
) -> DecompositionReport:
    """Correlation of a typed pair against the pieces of its splitting.

    Each split is (omega, nu) with omega = alpha * delta_M of one level and
    nu on omega's keys, as split_pp makes it; ValueError otherwise.  One
    count pass over reflect(nu_i) x nu_j tallies every pair by nu's level
    pair, which labels it (a point or the rest of M, on either side), and
    gamma_ij and the four split correlations are five correctly rounded sums
    of that tally, each atom for atom the pair_correlation of its combs; the
    point comb omega + nu weighs fl(alpha + v) at nu's level v, exactly 1 or
    0 for split_pp's levels.  So the bilinear identity

        gamma_ij = s_part + zero_part + cross_ij + cross_ji

    holds atom for atom up to final rounding; bilinear_residual is the
    largest |gamma - s_part - zero_part - cross_ij - cross_ji| over their
    keys, subtracted in that order.  zero_fb_max is the largest FB
    coefficient of the zero part over the supplied wave numbers, from
    fb_scan on the symmetric interval of radius r_max (so normalized by the
    support length 2 * r_max, with the exact module-point phases): the
    finite proxy for a null FB spectrum of the continuous-part correlation.
    """
    for omega, nu in (split_i, split_j):
        if len(omega.levels) != 1 or not np.array_equal(omega.codes, nu.codes):
            raise ValueError("a split must be (omega, nu) with omega = alpha * delta_M "
                             "of one level and nu on omega's keys")
    (omega_i, nu_i), (omega_j, nu_j) = split_i, split_j
    tallies, vol = _count(reflect_conjugate(nu_i), nu_j, shape, R, r_max, "both")
    alpha_i = np.full(len(nu_i.levels), omega_i.levels[0])
    alpha_j = np.full(len(nu_j.levels), omega_j.levels[0])
    # levels per level of nu_i and nu_j
    parts = _weighed(list(tallies), vol, r_max, [
        (alpha_i + nu_i.levels, alpha_j + nu_j.levels),
        (alpha_i, alpha_j),
        (nu_i.levels, nu_j.levels),
        (alpha_i, nu_j.levels),
        (nu_i.levels, alpha_j),
    ])
    codes = np.unique(np.concatenate([part.codes for part in parts]))
    residual = np.zeros(len(codes))
    for sign, part in zip((1, -1, -1, -1, -1), parts):
        residual[np.searchsorted(codes, part.codes)] += sign * part.weights
    gamma, s_part, zero_part, cross_ij, cross_ji = parts
    cross_sup = max(cross_ij.sup_norm(), cross_ji.sup_norm())
    zero_fb = 0.0
    if module_k:
        rows = fb_scan(zero_part, module_k, AveragingSpec("symmetric", (r_max,)))
        zero_fb = max(abs(row.value) for row in rows)
    return DecompositionReport(
        *parts, float(np.abs(residual).max(initial=0.0)), float(cross_sup), float(zero_fb)
    )
