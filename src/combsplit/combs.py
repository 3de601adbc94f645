"""Weighted Dirac combs on exact point sets, and the omega/nu splitting.

A comb is a finite collection of atoms, keyed by exact coordinates (m, n)
for the position m + n*tau (pure integers use n = 0), together with a
coverage interval on which the atom list is complete.  Combs of point sets
generated on a half line carry coverage (-inf, R]: there really are no
atoms to the left, and correlation kernels rely on that.  The kernels'
coverage check (_covers) and their cut of a comb to an interval (_search,
_bounds) are written here once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cps
from .zroot5 import TAU, embed_array

__all__ = [
    "WeightedComb",
    "dirac_comb",
    "lattice_comb",
    "reflect_conjugate",
    "linear_combine",
    "split_pp",
    "split_remainder",
    "ContainmentError",
]

_CODE_SHIFT = np.int64(2**32)
_KEY_BOUND = 2**31
# A comb's coverage check and the split's membership scan take ATOM_BLOCK
# atoms at a time, a multiple of 8 (the scan packs a block's membership into
# whole bytes), so neither holds an array of a byte or more per atom.  The scan's
# temporaries take about 60 B per atom of a block: on the twisted type-a
# window (2-core x86 machine), split_remainder's tracemalloc peak at
# R = 1e5 (45k model atoms) was 0.41, 0.62, 1.0 and 2.1 MiB with blocks of
# 2**12, 2**13, 2**14 and 2**16 (1.24 MiB when it held codes and an argsort
# over all of M), and its time the same within noise at R = 1e5 and 1e6.
ATOM_BLOCK = 1 << 12


class ContainmentError(ValueError):
    """A point set escapes the model set it is supposed to sit inside."""

    def __init__(self, message: str, offenders: list[tuple[int, int]]):
        super().__init__(message)
        self.offenders = offenders


class RangeError(ValueError):
    """A comb does not cover the interval a kernel needs."""


def _check_key_range(keys: np.ndarray) -> None:
    if len(keys) and (keys.min() <= -_KEY_BOUND or keys.max() >= _KEY_BOUND):
        raise ValueError("exact key out of range: |m| and |n| must be below 2**31")


def _encode(keys: np.ndarray) -> np.ndarray:
    """One int64 code per (m, n) key, ordered like the keys lexicographically.

    Codes are distinct while |m| and |n| stay below 2**31; larger keys raise
    ValueError instead of wrapping into collisions.
    """
    _check_key_range(keys)
    return keys[:, 0] * _CODE_SHIFT + keys[:, 1]


def _decode(codes: np.ndarray) -> np.ndarray:
    """The (N, 2) keys of _encode's codes.  The codes of two keys add to the
    code of their sum while its |m| and |n| stay below 2**31."""
    m = (codes + _KEY_BOUND) // _CODE_SHIFT
    return np.stack([m, codes - m * _CODE_SHIFT], axis=1)


@dataclass(frozen=True)
class WeightedComb:
    """sum_v levels[v] * 1_{S_v}: atoms at exact positions, each weighing one
    of a few levels (one for a Dirac comb, 1 - alpha and -alpha for nu).

    keys      (N, 2) int64, positions sorted ascending
    levels    (L,) float64 or complex128, distinct; no atom weighs exactly 0
    level     (N,) smallest unsigned dtype; weights = levels[level] per atom
    coverage  interval on which the atom list is complete
    """

    keys: np.ndarray
    levels: np.ndarray
    level: np.ndarray
    coverage: tuple[float, float]

    def __post_init__(self):
        if self.keys.ndim != 2 or self.keys.shape[1] != 2:
            raise ValueError("keys must have shape (N, 2)")
        if self.level.shape != (len(self.keys),) or self.level.dtype.kind != "u":
            raise ValueError("level must hold one unsigned index per key")
        lo, hi = self.coverage
        for a in range(0, len(self.keys), ATOM_BLOCK):
            block = self.keys[a : a + ATOM_BLOCK]
            pos = embed_array(block[:, 0], block[:, 1])
            if pos.min() < lo - 1e-9 or pos.max() > hi + 1e-9:
                raise ValueError("atoms outside the coverage interval")

    @classmethod
    def from_weights(cls, keys, weights, coverage) -> WeightedComb:
        """The comb of per-atom weights, sorted by position; its levels are
        their distinct bit patterns, so weights gives them back bit for bit."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights)
        if len(keys) != len(weights):
            raise ValueError("keys and weights must have equal length")
        order = np.argsort(embed_array(keys[:, 0], keys[:, 1]), kind="stable")
        weights = weights[order]
        bits, level = np.unique(weights.view(f"V{weights.itemsize}"), return_inverse=True)
        index = np.min_scalar_type(max(len(bits) - 1, 0))
        return cls(keys[order], bits.view(weights.dtype), level.astype(index), coverage)

    @property
    def weights(self) -> np.ndarray:
        return self.levels[self.level]

    @property
    def positions(self) -> np.ndarray:
        return embed_array(self.keys[:, 0], self.keys[:, 1])

    def __len__(self) -> int:
        return len(self.keys)

    def is_integer_supported(self) -> bool:
        """True when every atom sits on Z (n = 0 throughout)."""
        return bool(np.all(self.keys[:, 1] == 0))

    def atoms_dict(self) -> dict[tuple[int, int], complex]:
        return {
            (int(m), int(n)): w
            for (m, n), w in zip(self.keys, self.weights)
        }

    def atom(self, key: tuple[int, int]) -> complex:
        hits = np.flatnonzero(
            (self.keys[:, 0] == key[0]) & (self.keys[:, 1] == key[1])
        )
        if len(hits) == 0:
            return 0.0
        return self.levels[self.level[hits[0]]]

    def sup_norm(self) -> float:
        return float(np.abs(self.weights).max()) if len(self) else 0.0


def _search(keys, value, side="left"):
    """np.searchsorted(positions, value, side) for keys sorted by position,
    by binary search over one key's position at a time: float(m) + float(n)
    * TAU is the double embed_array forms, so no positions array is built."""
    find = bisect_left if side == "left" else bisect_right
    return find(range(len(keys)), value, key=lambda t: float(keys[t, 0]) + float(keys[t, 1]) * TAU)


def _bounds(comb: WeightedComb, lo: float, hi: float) -> tuple[int, int]:
    # the index range of the comb's atoms in [lo, hi], a rounding either side
    return _search(comb.keys, lo - 1e-12), _search(comb.keys, hi + 1e-12, "right")


def _covers(comb: WeightedComb, lo: float, hi: float, what: str, tail: str = "") -> None:
    # RangeError unless the comb's atom list is complete on [lo, hi]
    if not (comb.coverage[0] <= lo and comb.coverage[1] >= hi):
        raise RangeError(f"{what} covers {comb.coverage}, needs [{lo}, {hi}]{tail}")


def _uniform(keys: np.ndarray, weight: complex, coverage) -> WeightedComb:
    # weight * delta on keys sorted by position: one level, index 0 throughout
    dtype = np.float64 if isinstance(weight, (int, float)) else np.complex128
    level = np.zeros(len(keys), dtype=np.uint8)
    return WeightedComb(keys, np.array([weight], dtype=dtype), level, coverage)


def dirac_comb(
    keys: np.ndarray | Sequence[tuple[int, int]],
    coverage: tuple[float, float],
    weight: complex = 1.0,
) -> WeightedComb:
    """Comb with a constant weight on each of the given exact points."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(embed_array(keys[:, 0], keys[:, 1]), kind="stable")
    return _uniform(keys[order], weight, coverage)


def lattice_comb(lo: int, hi: int, weight: complex = 1.0) -> WeightedComb:
    """The comb weight * delta_Z on the integer sites lo..hi inclusive."""
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    keys = np.stack([ms, np.zeros_like(ms)], axis=1)  # ascending: no sort
    return _uniform(keys, weight, (float(lo), float(hi)))


def reflect_conjugate(mu: WeightedComb) -> WeightedComb:
    """Atom w at x becomes conj(w) at -x; coverage is negated."""
    lo, hi = mu.coverage
    return WeightedComb(-mu.keys[::-1], np.conj(mu.levels), mu.level[::-1], (-hi, -lo))


def linear_combine(
    terms: Sequence[tuple[complex, WeightedComb]],
) -> WeightedComb:
    """Atomwise combination sum_i c_i * mu_i on the common coverage.

    Atoms outside the coverage intersection are dropped, exact zero
    weights are removed, and the result is sorted by position.
    """
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    lo = max(mu.coverage[0] for _, mu in terms)
    hi = min(mu.coverage[1] for _, mu in terms)

    key_parts = []
    weight_parts = []
    complex_out = any(
        np.iscomplexobj(mu.weights) or isinstance(c, complex) for c, mu in terms
    )
    dtype = np.complex128 if complex_out else np.float64
    for c, mu in terms:
        pos = mu.positions
        mask = (pos >= lo) & (pos <= hi)
        key_parts.append(mu.keys[mask])
        weight_parts.append(mu.weights[mask].astype(dtype) * c)
    keys = np.concatenate(key_parts)
    weights = np.concatenate(weight_parts)

    codes = _encode(keys)
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    # bincount adds the weights of each bin in input order
    merged = np.empty(len(uniq), dtype=dtype)
    if complex_out:
        merged.real = np.bincount(inverse, weights.real, len(uniq))
        merged.imag = np.bincount(inverse, weights.imag, len(uniq))
    else:
        merged[:] = np.bincount(inverse, weights, len(uniq))
    keep = merged != 0
    return WeightedComb.from_weights(keys[first][keep], merged[keep], (lo, hi))


def _members(points, keys: np.ndarray) -> np.ndarray:
    # Which keys are points, as np.packbits bits.  The points' exact int64
    # codes are sorted, and the keys' codes are looked up among them
    # ATOM_BLOCK keys at a time; each point marks the first key of its code
    # (of equal keys, the first in position order).  Only the points' codes
    # and the bits span the input, and the offenders are found on the error
    # path.  Its own function, so that the codes are freed before the caller
    # unpacks the bits.
    points = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    wanted = _encode(points)
    wanted.sort()
    found = np.zeros(len(points), dtype=bool)  # per sorted code: a key marked
    marked = np.zeros(-(-len(keys) // 8), dtype=np.uint8)
    for a in range(0, len(keys), ATOM_BLOCK):
        codes = _encode(keys[a : a + ATOM_BLOCK])
        at = np.searchsorted(wanted, codes)
        hit = np.flatnonzero(at < len(wanted))
        hit = hit[wanted[at[hit]] == codes[hit]]
        # the first key of each code not marked before
        first, index = np.unique(at[hit], return_index=True)
        new = ~found[first]
        found[first[new]] = True
        block = np.zeros(len(codes), dtype=bool)
        block[hit[index[new]]] = True
        marked[a // 8 : (a + len(codes) + 7) // 8] = np.packbits(block)
    # found marks only the first sorted copy of each code, and marks it iff
    # the code is a key's
    firsts = np.ones(len(points), dtype=bool)
    np.not_equal(wanted[1:], wanted[:-1], out=firsts[1:])
    if not np.array_equal(found, firsts):
        missing = ~found[np.searchsorted(wanted, _encode(points))]
        offenders = [(int(m), int(n)) for m, n in points[missing][:20]]
        raise ContainmentError(
            f"{int(missing.sum())} point(s) outside the model set of the window",
            offenders,
        )
    if not firsts.all():
        raise ValueError("split points must be distinct")
    return marked


def split_remainder(points: np.ndarray, omega: WeightedComb) -> WeightedComb:
    """The remainder nu = delta_points - omega of omega = alpha * delta_M.

    The points must be distinct and lie in the model set M, the support of
    omega; a point outside M, anywhere on the line, raises ContainmentError
    with the first 20 offenders in input order.  So nu sits on M itself,
    with weight 1 - alpha on the points and -alpha on the rest of M, kept on
    omega's coverage with exact zeros dropped.  Each weight is the single
    rounding of 1 - alpha, so omega + nu reproduces the point comb atom for
    atom.  Membership compares exact int64 key codes (_encode), never
    positions, so distinct keys that embed to one double stay apart.
    """
    in_points = np.unpackbits(_members(points, omega.keys), count=len(omega.keys)).view(bool)
    # omega's atoms may sit a rounding outside its coverage; nu keeps none
    lo, hi = omega.coverage
    i, j = _search(omega.keys, lo), _search(omega.keys, hi, "right")
    n = len(omega.levels)
    levels = np.concatenate([1.0 - omega.levels, -omega.levels])
    keys, level = omega.keys[i:j], omega.level[i:j].astype(np.min_scalar_type(max(2 * n - 1, 0)))
    np.add(level, n, out=level, where=~in_points[i:j])
    nonzero = (levels != 0)[level]
    if not nonzero.all():  # alpha = 1 empties the points, alpha = 0 the rest
        keys, level = keys[nonzero], level[nonzero]
    return WeightedComb(keys, levels, level, (lo, hi))


def split_pp(
    points: np.ndarray,
    window: "cps.Window",
    alpha: float,
    rng: tuple[float, float],
    model_points: np.ndarray | None = None,
) -> tuple[WeightedComb, WeightedComb]:
    """Split a point comb into its model-set part and the remainder.

    Returns (omega, nu) with omega = alpha * delta_{model set} on rng and
    nu = delta_points - omega, so that omega + nu reproduces the input comb
    atom-for-atom.  Requires every input point to lie in the model set of
    the window; violations raise ContainmentError with the offenders.

    Both combs are built on the model set's keys, sorted by position: nu
    takes weight 1 - alpha where the points are and -alpha elsewhere
    (split_remainder), and membership is a binary search over the model
    keys' exact int64 codes (_encode), with no hashing, no merge and no
    floating point.  omega
    keeps the model points' array itself, so given model_points must be
    sorted by position (as cut_and_project returns them); unsorted ones
    raise ValueError.
    """
    if model_points is None:
        model_points = cps.cut_and_project(window, rng)
    model_points = np.asarray(model_points, dtype=np.int64).reshape(-1, 2)
    if np.any(np.diff(embed_array(model_points[:, 0], model_points[:, 1])) < 0):
        raise ValueError("model points must be sorted by position")
    omega = _uniform(model_points, float(alpha), rng)
    return omega, split_remainder(points, omega)
