"""Weighted Dirac combs on exact point sets, and the omega/nu splitting.

A comb is a finite collection of atoms, keyed by exact coordinates (m, n)
for the position m + n*tau (pure integers use n = 0), together with a
coverage interval on which the atom list is complete.  Combs of point sets
generated on a half line carry coverage (-inf, R]: there really are no
atoms to the left, and correlation kernels rely on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cps
from .zroot5 import embed_array

__all__ = [
    "WeightedComb",
    "dirac_comb",
    "lattice_comb",
    "reflect_conjugate",
    "linear_combine",
    "restrict",
    "split_pp",
    "split_remainder",
    "ContainmentError",
]

_CODE_SHIFT = np.int64(2**32)
_KEY_BOUND = 2**31


class ContainmentError(ValueError):
    """A point set escapes the model set it is supposed to sit inside."""

    def __init__(self, message: str, offenders: list[tuple[int, int]]):
        super().__init__(message)
        self.offenders = offenders


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


@dataclass(frozen=True)
class WeightedComb:
    """Atoms at exact positions with complex (or real) weights.

    keys      (N, 2) int64, positions sorted ascending
    weights   (N,) float64 or complex128, no exact zeros
    coverage  interval on which the atom list is complete
    """

    keys: np.ndarray
    weights: np.ndarray
    coverage: tuple[float, float]

    def __post_init__(self):
        if self.keys.ndim != 2 or self.keys.shape[1] != 2:
            raise ValueError("keys must have shape (N, 2)")
        if len(self.keys) != len(self.weights):
            raise ValueError("keys and weights must have equal length")
        if len(self.keys):
            pos = self.positions
            lo, hi = self.coverage
            if pos.min() < lo - 1e-9 or pos.max() > hi + 1e-9:
                raise ValueError("atoms outside the coverage interval")

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
        return self.weights[hits[0]]

    def total_mass(self) -> complex:
        return complex(self.weights.sum()) if len(self) else 0.0

    def sup_norm(self) -> float:
        return float(np.abs(self.weights).max()) if len(self) else 0.0


def _sorted_comb(keys, weights, coverage) -> WeightedComb:
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights)
    order = np.argsort(embed_array(keys[:, 0], keys[:, 1]), kind="stable")
    return WeightedComb(keys[order], weights[order], coverage)


def dirac_comb(
    keys: np.ndarray | Sequence[tuple[int, int]],
    coverage: tuple[float, float],
    weight: complex = 1.0,
) -> WeightedComb:
    """Comb with a constant weight on each of the given exact points."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    dtype = np.float64 if isinstance(weight, (int, float)) else np.complex128
    weights = np.full(len(keys), weight, dtype=dtype)
    return _sorted_comb(keys, weights, coverage)


def lattice_comb(lo: int, hi: int, weight: complex = 1.0) -> WeightedComb:
    """The comb weight * delta_Z on the integer sites lo..hi inclusive."""
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    keys = np.stack([ms, np.zeros_like(ms)], axis=1)
    return dirac_comb(keys, (float(lo), float(hi)), weight)


def reflect_conjugate(mu: WeightedComb) -> WeightedComb:
    """Atom w at x becomes conj(w) at -x; coverage is negated."""
    keys = -mu.keys[::-1]
    weights = np.conj(mu.weights[::-1])
    lo, hi = mu.coverage
    return WeightedComb(keys, weights, (-hi, -lo))


def restrict(mu: WeightedComb, lo: float, hi: float) -> WeightedComb:
    """Keep the atoms inside the closed interval [lo, hi].

    The result is a fully known finite measure, so its coverage is the
    whole line.
    """
    pos = mu.positions
    mask = (pos >= lo) & (pos <= hi)
    return WeightedComb(mu.keys[mask], mu.weights[mask], (-math.inf, math.inf))


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

    if len(keys) == 0:
        return WeightedComb(keys.reshape(0, 2), weights, (lo, hi))

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
    return _sorted_comb(keys[first][keep], merged[keep], (lo, hi))


def _locate(keys: np.ndarray, pos: np.ndarray, points: np.ndarray) -> np.ndarray:
    # Index of each point in keys (sorted by their positions pos), or -1.  A
    # point's position is computed exactly as its key's, so searchsorted
    # lands on it unless several keys round to the same double; those runs
    # are searched key by key.
    found = np.full(len(points), -1, dtype=np.int64)
    if not len(keys):
        return found
    p = embed_array(points[:, 0], points[:, 1])
    idx = np.minimum(np.searchsorted(pos, p), len(keys) - 1)
    hit = (keys[idx, 0] == points[:, 0]) & (keys[idx, 1] == points[:, 1])
    for c in np.flatnonzero(~hit & (pos[idx] == p)):
        run = np.arange(idx[c], np.searchsorted(pos, p[c], side="right"))
        match = run[(keys[run] == points[c]).all(axis=1)]
        if len(match):
            idx[c], hit[c] = match[0], True
    found[hit] = idx[hit]
    return found


def split_remainder(points: np.ndarray, omega: WeightedComb) -> WeightedComb:
    """The remainder nu = delta_points - omega of omega = alpha * delta_M.

    The points must be distinct and lie in the model set M, the support of
    omega; a point outside M, anywhere on the line, raises ContainmentError
    with the first 20 offenders in input order.  So nu sits on M itself,
    with weight 1 - alpha on the points and -alpha on the rest of M, kept on
    omega's coverage with exact zeros dropped.  Each weight is the single
    rounding of 1 - alpha, so omega + nu reproduces the point comb atom for
    atom.
    """
    points = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    _check_key_range(points)
    _check_key_range(omega.keys)
    pos = omega.positions
    found = _locate(omega.keys, pos, points)
    missing = found < 0
    if np.any(missing):
        offenders = [(int(m), int(n)) for m, n in points[missing][:20]]
        raise ContainmentError(
            f"{int(missing.sum())} point(s) outside the model set of the window",
            offenders,
        )
    in_points = np.zeros(len(pos), dtype=bool)
    in_points[found] = True
    if np.count_nonzero(in_points) != len(points):
        raise ValueError("split points must be distinct")
    # omega's atoms may sit a rounding outside its coverage; nu keeps none
    lo, hi = omega.coverage
    i, j = np.searchsorted(pos, lo), np.searchsorted(pos, hi, side="right")
    keys = omega.keys[i:j]
    weights = np.where(in_points[i:j], 1.0 - omega.weights[i:j], -omega.weights[i:j])
    nonzero = weights != 0
    if not nonzero.all():  # alpha = 1 empties the points, alpha = 0 the rest
        keys, weights = keys[nonzero], weights[nonzero]
    return WeightedComb(keys, weights, (lo, hi))


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
    (split_remainder), and membership is a searchsorted on positions
    followed by an exact key compare, with no hashing and no merge.  omega
    keeps the model points' array itself, so given model_points must be
    sorted by position (as cut_and_project returns them); unsorted ones
    raise ValueError.
    """
    if model_points is None:
        model_points = cps.cut_and_project(window, rng)
    model_points = np.asarray(model_points, dtype=np.int64).reshape(-1, 2)
    if np.any(np.diff(embed_array(model_points[:, 0], model_points[:, 1])) < 0):
        raise ValueError("model points must be sorted by position")
    omega = WeightedComb(model_points, np.full(len(model_points), float(alpha)), rng)
    return omega, split_remainder(points, omega)
