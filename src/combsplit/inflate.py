"""Symbolic substitution rules and their geometric realization.

A rule maps each letter to a word (or to a finite set of words with
probabilities, applied independently per tile and per level).  Realizing a
rule stretches every tile by the dominant eigenvalue of the substitution
matrix and subdivides; the typed point set collects the left endpoints of
the tiles, with exact golden-ratio coordinates: every tile length is an
element of Z[tau].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .combs import WeightedComb, dirac_comb
from .cps import MAX_POINTS, check_points_budget  # the budget lives in cps; re-exported
from .zroot5 import QuadraticInt, embed_array

__all__ = [
    "Branch",
    "SubstitutionRule",
    "TypedPointSet",
    "RuleError",
    "substitution_matrix",
    "pf_data",
    "PFData",
    "realize_geometric",
    "densities",
    "fibonacci_rule",
    "twisted_fibonacci_rule",
    "thue_morse_rule",
    "random_fibonacci_rule",
    "builtin_rule",
    "rule_from_json",
    "MAX_POINTS",
    "check_points_budget",
]

class RuleError(ValueError):
    """Invalid substitution rule or unsupported use of one."""


@dataclass(frozen=True)
class Branch:
    prob: float
    word: tuple[str, ...]


@dataclass(frozen=True)
class SubstitutionRule:
    """Alphabet, per-letter images (possibly probabilistic), exact tile lengths."""

    alphabet: tuple[str, ...]
    images: Mapping[str, tuple[Branch, ...]]
    lengths: Mapping[str, QuadraticInt]
    name: str = "custom"
    inflation_factor: QuadraticInt | None = None

    def __post_init__(self):
        seen = set()
        for letter in self.alphabet:
            if letter in seen:
                raise RuleError(f"duplicate letter {letter!r}")
            seen.add(letter)
        for letter in self.alphabet:
            branches = self.images.get(letter)
            if not branches:
                raise RuleError(f"letter {letter!r} has no image")
            total = 0.0
            for br in branches:
                if br.prob < 0:
                    raise RuleError("negative branch probability")
                total += br.prob
                for sym in br.word:
                    if sym not in seen:
                        raise RuleError(f"image letter {sym!r} not in alphabet")
            if abs(total - 1.0) > 1e-12:
                raise RuleError(f"branch probabilities of {letter!r} sum to {total}")
            if letter not in self.lengths:
                raise RuleError(f"letter {letter!r} has no tile length")
            if not isinstance(self.lengths[letter], QuadraticInt):
                raise RuleError(
                    f"tile length of {letter!r} must be an exact Z[tau] element, "
                    f"got {self.lengths[letter]!r}"
                )
            if not self.lengths[letter] > 0:
                raise RuleError(
                    f"tile length of {letter!r} must be positive, got {self.lengths[letter]}"
                )
        if not _is_primitive(substitution_matrix(self)):
            raise RuleError("substitution matrix is not primitive")

    @property
    def is_random(self) -> bool:
        return any(len(brs) > 1 for brs in self.images.values())

    def check_length_identity(self) -> None:
        """Exact no-drift check: each inflated tile spans factor * length.

        Needs a declared inflation factor; every branch of every letter must
        satisfy the identity in Z[tau].
        """
        if self.inflation_factor is None:
            raise RuleError("length identity needs an inflation factor")
        for letter in self.alphabet:
            want = self.inflation_factor * self.lengths[letter]
            for br in self.images[letter]:
                got = QuadraticInt(0, 0)
                for sym in br.word:
                    got = got + self.lengths[sym]
                if got != want:
                    raise RuleError(
                        f"image of {letter!r} spans {got}, expected {want}"
                    )


@dataclass(frozen=True)
class TypedPointSet:
    """Disjoint per-type sorted point lists covering the range [lo, hi]."""

    points: dict[str, np.ndarray]  # per type: (N, 2) int64, sorted by position
    rng: tuple[float, float]

    def types(self) -> tuple[str, ...]:
        return tuple(self.points)

    def count(self, name: str | None = None) -> int:
        if name is not None:
            return len(self.points[name])
        return sum(len(p) for p in self.points.values())

    def merged(self) -> np.ndarray:
        allpts = np.concatenate([p for p in self.points.values()]) \
            if self.points else np.empty((0, 2), dtype=np.int64)
        pos = embed_array(allpts[:, 0], allpts[:, 1])
        return allpts[np.argsort(pos, kind="stable")]

    def comb(self, name: str | None = None) -> WeightedComb:
        """Dirac comb of one type (or of the union).

        One-sided realizations are complete below their origin, so the
        coverage extends to -inf on the left.
        """
        pts = self.merged() if name is None else self.points[name]
        return dirac_comb(pts, (-math.inf, self.rng[1]))


def substitution_matrix(rule: SubstitutionRule) -> np.ndarray:
    """Letter-count matrix: entry (i, j) counts letter i in the image of j.

    For probabilistic rules the counts must not depend on the branch taken;
    a branch-dependent rule is rejected.
    """
    idx = {letter: i for i, letter in enumerate(rule.alphabet)}
    s = len(rule.alphabet)
    mat = np.zeros((s, s), dtype=np.int64)
    for j, letter in enumerate(rule.alphabet):
        counts = None
        for br in rule.images[letter]:
            c = np.zeros(s, dtype=np.int64)
            for sym in br.word:
                c[idx[sym]] += 1
            if counts is None:
                counts = c
            elif not np.array_equal(counts, c):
                raise RuleError(
                    f"branches of {letter!r} have different letter counts"
                )
        mat[:, j] = counts
    return mat


def _is_primitive(mat: np.ndarray) -> bool:
    s = mat.shape[0]
    power = np.eye(s, dtype=object)
    m = mat.astype(object)
    for _ in range(2 * s):
        power = power @ m
        if np.all(np.greater(power, 0)):
            return True
    return False


@dataclass(frozen=True)
class PFData:
    eigenvalue: float
    left: np.ndarray  # normalized so the minimum entry is 1 (tile lengths)
    right: np.ndarray  # normalized to sum 1 (letter frequencies)


def pf_data(mat: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000) -> PFData:
    """Dominant eigenvalue and positive eigenvectors by power iteration.

    Iterates until the infinity-norm residual of both eigenvector equations
    drops below tol.  Requires a primitive matrix.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if not _is_primitive(mat.astype(np.int64) if mat.dtype != object else mat):
        raise RuleError("matrix is not primitive")
    s = mat.shape[0]
    right = np.full(s, 1.0 / s)
    left = np.full(s, 1.0 / s)
    lam = 0.0
    for _ in range(max_iter):
        right_new = mat @ right
        lam = right_new.sum()
        right_new /= lam
        left_new = left @ mat
        left_new /= left_new.sum()
        res = max(
            np.abs(mat @ right_new - lam * right_new).max(),
            np.abs(left_new @ mat - lam * left_new).max(),
        )
        right, left = right_new, left_new
        if res <= tol:
            break
    else:
        raise RuleError(f"power iteration did not reach residual {tol}")
    # bilinear quotient squares the residual error of the eigenvalue
    lam = float((left @ mat @ right) / (left @ right))
    return PFData(lam, left / left.min(), right / right.sum())


def _philox_uniforms(seed: int, stream: int, level: int, count: int) -> np.ndarray:
    # Stable per-(level, tile-index) stream: one counter-based generator per
    # level, consumed positionally, so larger targets extend earlier draws.
    key = ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (
        (stream * 0x9E3779B97F4A7C15 + level) & 0xFFFFFFFFFFFFFFFF
    )
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(count)


def realize_geometric(
    rule: SubstitutionRule,
    seed: str,
    R: float,
    rng_seed: int | None = None,
    stream: int = 0,
) -> TypedPointSet:
    """Realize an inflation fixed point on [0, R] as typed left endpoints.

    Parameters
    ----------
    rule : SubstitutionRule
    seed : starting letter; for deterministic rules its image must start
        with the letter itself, so a one-sided fixed point exists.
    R : target length; the word is inflated until it covers [0, R' >= R]
        and points beyond R are cut.
    rng_seed, stream : seed the branch draws of probabilistic rules;
        identical values reproduce the realization bit-for-bit.

    Returns
    -------
    TypedPointSet with exact Z[tau] coordinates.
    """
    if seed not in rule.alphabet:
        raise RuleError(f"seed {seed!r} not in alphabet")
    if not math.isfinite(R) or R < 0:
        raise RuleError(f"R must be finite and nonnegative, got {R!r}")
    if not rule.is_random:
        first = rule.images[seed][0].word[0]
        if first != seed:
            raise RuleError(
                f"image of {seed!r} starts with {first!r}; no one-sided fixed point"
            )
    elif rng_seed is None:
        raise RuleError("probabilistic rules need an rng seed")

    idx = {letter: i for i, letter in enumerate(rule.alphabet)}
    br_words = [
        [np.array([idx[s] for s in br.word], dtype=np.int16) for br in rule.images[l]]
        for l in rule.alphabet
    ]
    br_cumprob = [
        np.cumsum([br.prob for br in rule.images[l]]) for l in rule.alphabet
    ]
    lengths = [rule.lengths[l] for l in rule.alphabet]
    len_values = np.array([l.embed() for l in lengths])
    # letter frequencies over mean tile length: points per unit length
    freqs = pf_data(substitution_matrix(rule)).right
    check_points_budget(R / float(freqs @ len_values), f"realizing {rule.name} on [0, {R:g}]")

    word = np.array([idx[seed]], dtype=np.int16)
    level = 0
    while float(np.bincount(word, minlength=len(idx)) @ len_values) < R:
        word = _inflate_word(word, br_words, br_cumprob, rng_seed, stream, level)
        level += 1
        if level > 128:
            raise RuleError("inflation did not reach the requested length")

    keys = _tile_starts(word, lengths, R)
    word = word[: len(keys)]
    points = {
        letter: keys[word == i] for letter, i in idx.items()
    }
    return TypedPointSet(points, (0.0, float(R)))


def _tile_starts(word, lengths, R):
    # Exact keys of the tile starts on [0, R].  Tiles have positive lengths,
    # so the starts grow along the word, and so do their embeddings while a
    # tile is longer than their rounding (under 1e-6 for keys below 2**31).
    # The starts kept are thus a prefix: its length comes from the exact
    # tile ends, and keys are built for that prefix only.  The ends, which
    # span the whole word, are freed on return, before the per-type copies.
    end_m = np.cumsum(np.array([l.m for l in lengths], dtype=np.int64)[word])
    end_n = np.cumsum(np.array([l.n for l in lengths], dtype=np.int64)[word])
    kept = 1 + bisect.bisect_right(
        range(len(word) - 1), R, key=lambda k: embed_array(end_m[k : k + 1], end_n[k : k + 1])[0]
    )
    keys = np.zeros((kept, 2), dtype=np.int64)
    keys[1:, 0], keys[1:, 1] = end_m[: kept - 1], end_n[: kept - 1]
    return keys


def _inflate_word(word, br_words, br_cumprob, rng_seed, stream, level):
    n_letters = len(br_words)
    random_rule = any(len(b) > 1 for b in br_words)
    if random_rule:
        u = _philox_uniforms(rng_seed, stream, level, len(word))
        branch = np.zeros(len(word), dtype=np.int8)
        for i in range(n_letters):
            if len(br_words[i]) > 1:
                mask = word == i
                chosen = np.searchsorted(br_cumprob[i], u[mask], side="right")
                branch[mask] = np.minimum(chosen, len(br_words[i]) - 1).astype(
                    np.int8
                )
    else:
        branch = np.zeros(len(word), dtype=np.int8)

    img_len = np.zeros(len(word), dtype=np.int64)
    for i in range(n_letters):
        for b, img in enumerate(br_words[i]):
            img_len[(word == i) & (branch == b)] = len(img)
    starts = np.concatenate(([0], np.cumsum(img_len)[:-1]))
    out = np.empty(int(img_len.sum()), dtype=np.int16)
    for i in range(n_letters):
        for b, img in enumerate(br_words[i]):
            mask = (word == i) & (branch == b)
            if not mask.any():
                continue
            slots = starts[mask][:, None] + np.arange(len(img))[None, :]
            out[slots.ravel()] = np.tile(img, int(mask.sum()))
    return out


def densities(tps: TypedPointSet) -> dict[str, float]:
    """Per-type point count divided by the covered length."""
    lo, hi = tps.rng
    if hi <= lo:
        raise ValueError("densities need a range of positive length")
    return {t: len(p) / (hi - lo) for t, p in tps.points.items()}


def fibonacci_rule() -> SubstitutionRule:
    tau = QuadraticInt(0, 1)
    one = QuadraticInt(1, 0)
    return SubstitutionRule(
        alphabet=("a", "b"),
        images={"a": (Branch(1.0, ("a", "b")),), "b": (Branch(1.0, ("a",)),)},
        lengths={"a": tau, "b": one},
        name="fibonacci",
        inflation_factor=tau,
    )


def twisted_fibonacci_rule() -> SubstitutionRule:
    """Four-letter double cover of the golden chain with mixed spectrum.

    Barred letters are written with a trailing underscore; a and a_ carry
    the long tile, b and b_ the short one.
    """
    tau = QuadraticInt(0, 1)
    one = QuadraticInt(1, 0)
    return SubstitutionRule(
        alphabet=("a", "a_", "b", "b_"),
        images={
            "a": (Branch(1.0, ("a", "b")),),
            "a_": (Branch(1.0, ("a_", "b_")),),
            "b": (Branch(1.0, ("a_",)),),
            "b_": (Branch(1.0, ("a",)),),
        },
        lengths={"a": tau, "a_": tau, "b": one, "b_": one},
        name="twisted_fibonacci",
        inflation_factor=tau,
    )


def thue_morse_rule() -> SubstitutionRule:
    one = QuadraticInt(1, 0)
    return SubstitutionRule(
        alphabet=("a", "b"),
        images={"a": (Branch(1.0, ("a", "b")),), "b": (Branch(1.0, ("b", "a")),)},
        lengths={"a": one, "b": one},
        name="thue_morse",
        inflation_factor=QuadraticInt(2, 0),
    )


def random_fibonacci_rule(p: float) -> SubstitutionRule:
    """Golden chain with the long tile split as ab or ba, locally at random."""
    if not 0.0 <= p <= 1.0:
        raise RuleError("p must be in [0, 1]")
    tau = QuadraticInt(0, 1)
    one = QuadraticInt(1, 0)
    return SubstitutionRule(
        alphabet=("a", "b"),
        images={
            "a": (Branch(p, ("a", "b")), Branch(1.0 - p, ("b", "a"))),
            "b": (Branch(1.0, ("a",)),),
        },
        lengths={"a": tau, "b": one},
        name="random_fibonacci",
        inflation_factor=tau,
    )


def builtin_rule(name: str, p: float = 0.5) -> SubstitutionRule:
    if name == "fibonacci":
        return fibonacci_rule()
    if name == "twisted_fibonacci":
        return twisted_fibonacci_rule()
    if name == "thue_morse":
        return thue_morse_rule()
    if name == "random_fibonacci":
        return random_fibonacci_rule(p)
    raise RuleError(f"unknown built-in rule {name!r}")


def _json_int(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise RuleError(f"expected a JSON integer, got {obj!r}")
    return obj


def _length_from_json(obj) -> QuadraticInt:
    if isinstance(obj, dict):
        extra = set(obj) - {"m", "n"}
        if extra:
            raise RuleError(f"unknown length keys {sorted(extra)}")
        return QuadraticInt(_json_int(obj.get("m", 0)), _json_int(obj.get("n", 0)))
    return QuadraticInt(_json_int(obj), 0)


def rule_from_json(obj: dict) -> SubstitutionRule:
    """Build a rule from its JSON form.

    Schema: {"name"?: str, "alphabet": [letters], "images": {letter: word
    or [{"prob": p, "word": [...]}, ...]}, "lengths": {letter: {"m", "n"}
    or integer}, "inflation_factor"?: {"m", "n"} or integer}.  Lengths and
    factors are exact: a plain integer k means k + 0*tau, and any other
    number is rejected.
    """
    known = {"name", "alphabet", "images", "lengths", "inflation_factor"}
    extra = set(obj) - known
    if extra:
        raise RuleError(f"unknown rule keys {sorted(extra)}")
    alphabet = tuple(obj["alphabet"])
    images = {}
    for letter, img in obj["images"].items():
        if isinstance(img, list) and img and isinstance(img[0], dict):
            images[letter] = tuple(
                Branch(float(br["prob"]), tuple(br["word"])) for br in img
            )
        else:
            images[letter] = (Branch(1.0, tuple(img)),)
    lengths = {l: _length_from_json(v) for l, v in obj["lengths"].items()}
    factor = None
    if "inflation_factor" in obj:
        factor = _length_from_json(obj["inflation_factor"])
    return SubstitutionRule(
        alphabet=alphabet,
        images=images,
        lengths=lengths,
        name=str(obj.get("name", "custom")),
        inflation_factor=factor,
    )
