"""Weighted Dirac combs on exact point sets, and the omega/nu splitting.

A comb is a finite collection of atoms, keyed by exact coordinates (m, n)
for the position m + n*tau (pure integers use n = 0) and stored as their
int64 key codes (zroot5._codes), together with a
coverage interval on which the atom list is complete.  Combs of point sets
generated on a half line carry coverage (-inf, R]: there really are no
atoms to the left, and correlation kernels rely on that.  The kernels'
coverage check (_covers) and their cut of a comb to an interval (_search,
_bounds) are written here once, and so is the layout of a split's levels,
which split_remainder writes and split_points reads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .zroot5 import _code, _code_position, _codes, _decode, _encode, _integer_sites, _key_parts
from .zroot5 import embed_array

__all__ = [
    "WeightedComb",
    "dirac_comb",
    "lattice_comb",
    "reflect_conjugate",
    "linear_combine",
    "split_pp",
    "split_remainder",
    "split_points",
    "ContainmentError",
]

# A comb's coverage check, its positions and the split's membership search
# take ATOM_BLOCK atoms at a time, so none holds a temporary of a byte or more
# per atom.  On the twisted type-a window (2-core x86 machine, medians of 7),
# split_remainder took 2.3, 2.1, 2.1 and 1.8 ms at R = 1e5 (22k points, 45k
# model atoms) and 22, 25, 19 and 21 ms at R = 1e6 with blocks of 2**12, 2**13,
# 2**14 and 2**16, peaking at 0.35, 0.68, 0.92 and 1.6 MiB at R = 1e5 (traced;
# the scan of sorted point codes it replaced: 2.7 and 28 ms, 0.38 MiB).
ATOM_BLOCK = 1 << 12


class ContainmentError(ValueError):
    """A point set escapes the model set it is supposed to sit inside."""

    def __init__(self, message: str, offenders: list[tuple[int, int]]):
        super().__init__(message)
        self.offenders = offenders


class RangeError(ValueError):
    """A comb does not cover the interval a kernel needs."""


def _as_codes(points) -> np.ndarray:
    # the int64 key codes of points given as codes (N,) or as keys (N, 2)
    points = np.asarray(points, dtype=np.int64)
    return points if points.ndim == 1 else _encode(points.reshape(-1, 2))


def _positions(codes: np.ndarray) -> np.ndarray:
    # embed_array of the codes' keys, decoded ATOM_BLOCK at a time
    out = np.empty(len(codes))
    for a in range(0, len(codes), ATOM_BLOCK):
        out[a : a + ATOM_BLOCK] = embed_array(*_key_parts(codes[a : a + ATOM_BLOCK]))
    return out


def _in_position_order(codes: np.ndarray) -> bool:
    # whether the codes' positions never decrease, read ATOM_BLOCK at a time
    last = -np.inf
    for a in range(0, len(codes), ATOM_BLOCK):
        x = _positions(codes[a : a + ATOM_BLOCK])
        if x[0] < last or np.any(x[1:] < x[:-1]):
            return False
        last = x[-1]
    return True


@dataclass(frozen=True)
class WeightedComb:
    """sum_v levels[v] * 1_{S_v}: atoms at exact positions, each weighing one
    of a few levels (one for a Dirac comb, 1 - alpha and -alpha for nu).

    codes     (N,) int64 key codes (zroot5._codes), positions sorted ascending
    levels    (L,) float64 or complex128, distinct, 0 allowed (linear_combine
              and split_remainder drop the atoms of weight 0)
    level     (N,) smallest unsigned dtype; weights = levels[level] per atom
    coverage  interval on which the atom list is complete

    ValueError for keys out of code range, codes out of position order,
    atoms outside the coverage or a level index of L or more.
    """

    codes: np.ndarray
    levels: np.ndarray
    level: np.ndarray
    coverage: tuple[float, float]

    def __post_init__(self):
        if self.codes.ndim != 1 or self.codes.dtype != np.int64:
            raise ValueError("codes must be an (N,) int64 array")
        if self.level.shape != self.codes.shape or self.level.dtype.kind != "u":
            raise ValueError("level must hold one unsigned index per key")
        if len(self.level) and self.level.max() >= len(self.levels):
            raise ValueError("level indices must be below the number of levels")
        lo, hi = self.coverage
        last = -np.inf
        for a in range(0, len(self.codes), ATOM_BLOCK):
            m, n = _key_parts(self.codes[a : a + ATOM_BLOCK])
            _codes(m, n)  # ValueError unless every key is in range
            pos = embed_array(m, n)
            if pos.min() < lo - 1e-9 or pos.max() > hi + 1e-9:
                raise ValueError("atoms outside the coverage interval")
            if pos[0] < last or np.any(pos[1:] < pos[:-1]):
                raise ValueError("codes must be sorted by position")
            last = pos[-1]

    @classmethod
    def from_weights(cls, keys, weights, coverage) -> WeightedComb:
        """The comb of per-atom weights at keys, (N, 2) or codes (N,), sorted
        by position; its levels are their distinct bit patterns, so weights
        gives them back bit for bit."""
        codes, weights = _as_codes(keys), np.asarray(weights)
        if len(codes) != len(weights):
            raise ValueError("keys and weights must have equal length")
        order = np.argsort(_positions(codes), kind="stable")
        weights = weights[order]
        bits, level = np.unique(weights.view(f"V{weights.itemsize}"), return_inverse=True)
        index = np.min_scalar_type(max(len(bits) - 1, 0))
        return cls(codes[order], bits.view(weights.dtype), level.astype(index), coverage)

    @property
    def keys(self) -> np.ndarray:
        """The (N, 2) int64 keys (m, n), decoded from the codes."""
        return _decode(self.codes)

    @property
    def weights(self) -> np.ndarray:
        return self.levels[self.level]

    @property
    def positions(self) -> np.ndarray:
        return _positions(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def is_integer_supported(self) -> bool:
        """True when every atom sits on Z (n = 0 throughout)."""
        return _integer_sites(self.codes) is not None

    def atoms_dict(self) -> dict[tuple[int, int], complex]:
        return {(m, n): w for (m, n), w in zip(self.keys.tolist(), self.weights)}

    def atom(self, key: tuple[int, int]) -> complex:
        code = _code(*key)  # a key out of range has no atom, and no code
        hits = [] if code is None else np.flatnonzero(self.codes == code)
        return self.levels[self.level[hits[0]]] if len(hits) else 0.0

    def sup_norm(self) -> float:
        return float(np.abs(self.weights).max()) if len(self) else 0.0


def _search(codes, value, side="left"):
    """np.searchsorted(positions, value, side) for codes sorted by position,
    by binary search over one code's position at a time (_code_position, the
    double embed_array forms), so no positions array is built."""
    find = bisect_left if side == "left" else bisect_right
    return find(range(len(codes)), value, key=lambda t: _code_position(codes[t]))


def _bounds(comb: WeightedComb, lo: float, hi: float) -> tuple[int, int]:
    # the index range of the comb's atoms in [lo, hi], a rounding either side
    return _search(comb.codes, lo - 1e-12), _search(comb.codes, hi + 1e-12, "right")


def _covers(comb: WeightedComb, lo: float, hi: float, what: str, tail: str = "") -> None:
    # RangeError unless the comb's atom list is complete on [lo, hi]
    if not (comb.coverage[0] <= lo and comb.coverage[1] >= hi):
        raise RangeError(f"{what} covers {comb.coverage}, needs [{lo}, {hi}]{tail}")


def _uniform(codes: np.ndarray, weight: complex, coverage) -> WeightedComb:
    # weight * delta on codes sorted by position: one level, and index 0
    # throughout as a zero-stride view, not a byte per atom
    dtype = np.float64 if isinstance(weight, (int, float)) else np.complex128
    level = np.broadcast_to(np.uint8(0), codes.shape)
    return WeightedComb(codes, np.array([weight], dtype=dtype), level, coverage)


def dirac_comb(
    keys: np.ndarray | Sequence[tuple[int, int]],
    coverage: tuple[float, float],
    weight: complex = 1.0,
) -> WeightedComb:
    """Comb with a constant weight on each of the given exact points, as
    (N, 2) keys or codes (N,)."""
    codes = _as_codes(keys)
    return _uniform(codes[np.argsort(_positions(codes), kind="stable")], weight, coverage)


def lattice_comb(lo: int, hi: int, weight: complex = 1.0) -> WeightedComb:
    """The comb weight * delta_Z on the integer sites lo..hi inclusive."""
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    return _uniform(_codes(ms, np.zeros_like(ms)), weight, (float(lo), float(hi)))  # ascending


def reflect_conjugate(mu: WeightedComb) -> WeightedComb:
    """Atom w at x becomes conj(w) at -x; coverage is negated.  The code of
    -k is minus the code of k, so the reflected codes are -codes reversed."""
    lo, hi = mu.coverage
    return WeightedComb(-mu.codes[::-1], np.conj(mu.levels), mu.level[::-1], (-hi, -lo))


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

    code_parts = []
    weight_parts = []
    complex_out = any(
        np.iscomplexobj(mu.weights) or isinstance(c, complex) for c, mu in terms
    )
    dtype = np.complex128 if complex_out else np.float64
    for c, mu in terms:
        pos = mu.positions
        mask = (pos >= lo) & (pos <= hi)
        code_parts.append(mu.codes[mask])
        weight_parts.append(mu.weights[mask].astype(dtype) * c)
    weights = np.concatenate(weight_parts)
    uniq, inverse = np.unique(np.concatenate(code_parts), return_inverse=True)
    # bincount adds the weights of each bin in input order
    merged = np.empty(len(uniq), dtype=dtype)
    if complex_out:
        merged.real = np.bincount(inverse, weights.real, len(uniq))
        merged.imag = np.bincount(inverse, weights.imag, len(uniq))
    else:
        merged[:] = np.bincount(inverse, weights, len(uniq))
    keep = merged != 0
    return WeightedComb.from_weights(uniq[keep], merged[keep], (lo, hi))


def _members(points: np.ndarray, codes: np.ndarray) -> np.ndarray:
    # Which codes (in position order) are points, as a bool mask.  The
    # points are taken in position order (argsorted unless they are in it, as
    # realizations are), ATOM_BLOCK at a time, and searched by position among
    # the codes their span reaches; a run of equal positions is walked to the
    # point's own code.  So each point marks the first code equal to its own,
    # and beyond the mask only a byte per point spans the input.
    order = None if _in_position_order(points) else np.argsort(_positions(points), kind="stable")
    found = np.zeros(len(points), dtype=bool)
    marked = np.zeros(len(codes), dtype=bool)
    for a in range(0, len(points), ATOM_BLOCK):
        at = slice(a, a + ATOM_BLOCK) if order is None else order[a : a + ATOM_BLOCK]
        block = points[at]
        px = _positions(block)
        i, j = _search(codes, px[0]), _search(codes, px[-1], "right")
        if i == j:  # no code at these positions
            continue
        cm, pm = codes[i:j], _positions(codes[i:j])
        hit = np.minimum(np.searchsorted(pm, px), j - i - 1)
        for t in np.flatnonzero((cm[hit] != block) & (pm[hit] == px)).tolist():
            while cm[hit[t]] != block[t] and hit[t] + 1 < j - i and pm[hit[t] + 1] == px[t]:
                hit[t] += 1
        found[at] = ok = cm[hit] == block
        marked[i + hit[ok]] = True
    if not found.all():
        offenders = [(m, n) for m, n in _decode(points[~found][:20]).tolist()]
        raise ContainmentError(
            f"{len(points) - int(found.sum())} point(s) outside the model set of the window",
            offenders,
        )
    if np.count_nonzero(marked) != len(points):
        raise ValueError("split points must be distinct")
    return marked


def split_remainder(points: np.ndarray, omega: WeightedComb) -> WeightedComb:
    """The remainder nu = delta_points - omega of omega = alpha * delta_M.

    The points, key codes (N,) or keys (N, 2), must be distinct and lie in
    the model set M, the support of omega; a point outside M, anywhere on the
    line, raises ContainmentError with the first 20 offenders in input order.
    So nu sits on M itself, with weight 1 - alpha on the points and -alpha on
    the rest of M, kept on omega's coverage with exact zeros dropped.  Each
    weight is the single rounding of 1 - alpha, so omega + nu reproduces the
    point comb atom for atom.  Membership is decided by exact key codes.
    """
    in_points = _members(_as_codes(points), omega.codes)
    # omega's atoms may sit a rounding outside its coverage; nu keeps none
    lo, hi = omega.coverage
    i, j = _search(omega.codes, lo), _search(omega.codes, hi, "right")
    n = len(omega.levels)
    levels = np.concatenate([1.0 - omega.levels, -omega.levels])
    codes, level = omega.codes[i:j], omega.level[i:j].astype(np.min_scalar_type(max(2 * n - 1, 0)))
    np.add(level, n, out=level, where=~in_points[i:j])
    nonzero = (levels != 0)[level]
    if not nonzero.all():  # alpha = 1 empties the points, alpha = 0 the rest
        codes, level = codes[nonzero], level[nonzero]
    return WeightedComb(codes, levels, level, (lo, hi))


def split_points(omega: WeightedComb, nu: WeightedComb) -> np.ndarray:
    """The point codes of a split made by split_remainder, sorted by position
    (read by SystemContext.tps, for bench/pipeline.py only): nu's atoms at
    level 0 (weight 1 - alpha), or, when alpha = 1 dropped those, omega's
    atoms on nu's coverage that nu lacks."""
    if nu.levels[0] != 0:
        return nu.codes[nu.level == 0]
    lo, hi = nu.coverage
    model = omega.codes[_search(omega.codes, lo) : _search(omega.codes, hi, "right")]
    return model[~np.isin(model, nu.codes)]


def split_pp(
    points: np.ndarray, model: np.ndarray, alpha: float, rng: tuple[float, float]
) -> tuple[WeightedComb, WeightedComb]:
    """Split a point comb into its model-set part and the remainder.

    Returns (omega, nu) with omega = alpha * delta_M on rng, for the model
    set M of codes model, and nu = delta_points - omega, so that omega + nu
    reproduces the input comb atom-for-atom.  Requires every input point to
    lie in M; violations raise ContainmentError with the offenders.

    Both combs are built on M's codes: nu takes weight 1 - alpha where the
    points are and -alpha elsewhere (split_remainder).  omega keeps the
    array model itself, so it must be sorted by position, as cut_and_project
    returns it; WeightedComb refuses others with ValueError.
    """
    omega = _uniform(model, float(alpha), rng)
    return omega, split_remainder(points, omega)
