"""Symbolic substitution rules and their geometric realization.

A rule maps each letter to a word (or to a finite set of words with
probabilities, applied independently per tile and per level).  Realizing a
rule stretches every tile by the dominant eigenvalue of the substitution
matrix and subdivides; the typed point set collects the left endpoints of
the tiles, with exact golden-ratio coordinates: every tile length is an
element of Z[tau].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .combs import WeightedComb, dirac_comb
from .cps import check_points_budget
from .zroot5 import QuadraticInt, _codes, _decode, embed_array

__all__ = [
    "Branch",
    "SubstitutionRule",
    "TypedPointSet",
    "RuleError",
    "substitution_matrix",
    "realize_word",
    "realize_geometric",
    "fibonacci_rule",
    "twisted_fibonacci_rule",
    "thue_morse_rule",
    "random_fibonacci_rule",
    "builtin_rule",
    "rule_from_json",
]

class RuleError(ValueError):
    """Invalid substitution rule or unsupported use of one."""


@dataclass(frozen=True)
class Branch:
    prob: float
    word: tuple[str, ...]


@dataclass(frozen=True)
class SubstitutionRule:
    """Alphabet, per-letter images (possibly probabilistic), exact tile lengths.

    A declared inflation factor must satisfy check_length_identity, else
    RuleError is raised at construction."""

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
        stray = [f"{key} {[l for l in getattr(self, key) if l not in seen]}"
                 for key in ("images", "lengths") if not set(getattr(self, key)) <= seen]
        if stray:
            raise RuleError(f"letters outside the alphabet {list(self.alphabet)}: "
                            + ", ".join(stray))
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
        if self.inflation_factor is not None:
            self.check_length_identity()

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
                        f"image of {letter!r} spans {got}, not the inflation factor "
                        f"times its length, {want}"
                    )


class _Derived(Mapping):
    # the mapping name -> value(name) over the names of names, computed when read
    def __init__(self, names: Mapping[str, object], value):
        self._names, self._value = names, value

    def __getitem__(self, name: str) -> np.ndarray:
        return self._value(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True)
class TypedPointSet:
    """Disjoint per-type sorted point lists covering the range [lo, hi]."""

    codes: Mapping[str, np.ndarray]  # per type: (N,) int64 key codes, sorted by position
    rng: tuple[float, float]

    @property
    def points(self) -> Mapping[str, np.ndarray]:
        """Per type, the (N, 2) int64 keys (m, n), decoded when a type is read."""
        return _Derived(self.codes, lambda t: _decode(self.codes[t]))

    def types(self) -> tuple[str, ...]:
        return tuple(self.codes)

    def count(self, name: str | None = None) -> int:
        if name is not None:
            return len(self.codes[name])
        return sum(len(c) for c in self.codes.values())

    def comb(self, name: str | None = None) -> WeightedComb:
        """Dirac comb of one type (or of the union).

        One-sided realizations are complete below their origin, so the
        coverage extends to -inf on the left.
        """
        codes = self.codes[name] if name is not None else np.concatenate(
            [np.empty(0, dtype=np.int64), *self.codes.values()])
        return dirac_comb(codes, (-math.inf, self.rng[1]))


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


def _philox_generator(seed: int, stream: int, level: int) -> np.random.Generator:
    # Stable per-(level, tile-index) stream: one counter-based generator per
    # level, consumed positionally, so larger targets extend earlier draws.
    # Philox buffers its outputs, so draws taken block by block from one
    # generator equal one draw of their total size.
    key = ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (
        (stream * 0x9E3779B97F4A7C15 + level) & 0xFFFFFFFFFFFFFFFF
    )
    return np.random.Generator(np.random.Philox(key=key))


# Words are read and written in blocks of an eighth of their letters, at
# least 1024 and at most LETTER_BLOCK, so that the int64 temporaries of a
# block stay near the size of the int8 word or below it at every length.
# On the 2**20-letter Thue-Morse word, realize_word's tracemalloc peak was
# 2.57, 1.82 and 1.66 B per letter with LETTER_BLOCK = 2**16, 2**15 and
# 2**14 (the word and the previous level take 1.5); the twisted chain's
# realization at R = 1e7 took the same time with blocks of 2**16 and 2**14.
LETTER_BLOCK = 1 << 14


def _block_size(n_letters: int) -> int:
    return min(LETTER_BLOCK, max(1024, n_letters // 8))


def realize_word(
    rule: SubstitutionRule, seed: str, R: float, rng_seed: int | None = None, stream: int = 0
) -> np.ndarray:
    """The tiles of an inflation fixed point that start in [0, R], as a word
    of indices into rule.alphabet, in the narrowest signed dtype that holds
    them: int8 for up to 128 letters, so for every built-in rule, and int16
    for up to 32768.

    Parameters
    ----------
    rule : SubstitutionRule
    seed : starting letter; for deterministic rules its image must start
        with the letter itself, so a one-sided fixed point exists.
    R : target length; the word is inflated until it covers [0, R' >= R]
        and the tiles that start beyond R are cut.
    rng_seed, stream : seed the branch draws of probabilistic rules;
        identical values reproduce the realization bit-for-bit.
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
    # the narrowest signed dtype of the indices and the images' padding -1
    letter_type = np.min_scalar_type(-len(idx))
    br_words = [
        [np.array([idx[s] for s in br.word], dtype=letter_type) for br in rule.images[l]]
        for l in rule.alphabet
    ]
    br_cumprob = [
        np.cumsum([br.prob for br in rule.images[l]]) for l in rule.alphabet
    ]
    lengths = [rule.lengths[l] for l in rule.alphabet]
    len_values = np.array([l.embed() for l in lengths])
    mat = substitution_matrix(rule).tolist()
    # The letter counts of each level are exact Python ints, S**level applied
    # to the seed's unit vector; the first level whose tiles cover R is the
    # depth.  Its points per unit length size the budget before any inflation,
    # even past the depth limit: R * (count / length) stays finite where
    # R * count would overflow.
    tally = [int(i == idx[seed]) for i in range(len(idx))]
    depth = 0
    while ((length := float(np.array(tally, dtype=np.float64) @ len_values)) < R
           and depth <= 128):
        tally = [sum(a * t for a, t in zip(row, tally)) for row in mat]
        depth += 1
    check_points_budget(R * (sum(tally) / length), f"realizing {rule.name} on [0, {R:g}]")
    if depth > 128:
        raise RuleError("inflation did not reach the requested length")
    word = np.array([idx[seed]], dtype=letter_type)
    for level in range(depth):
        word = _inflate_word(word, br_words, br_cumprob, rng_seed, stream, level)

    # Tiles have positive lengths, so the starts grow along the word, and so
    # do their embeddings while a tile is longer than their rounding (under
    # 1e-6 for keys below 2**31).  The tiles kept are thus a prefix: start
    # k + 1 is the end of tile k, and the prefix runs up to the first tile
    # end beyond R (the word's last tile end is no start).  That end is found
    # from per-block letter counts, then within its block.
    len_m = np.array([l.m for l in lengths], dtype=np.int64)
    len_n = np.array([l.n for l in lengths], dtype=np.int64)
    block = _block_size(len(word))
    counts = np.array([np.bincount(word[a : a + block], minlength=len(idx))
                       for a in range(0, len(word), block)])
    block_m, block_n = np.cumsum(counts @ len_m), np.cumsum(counts @ len_n)
    b = min(int(np.searchsorted(embed_array(block_m, block_n), R, side="right")), len(counts) - 1)
    letters = word[b * block : (b + 1) * block]
    end_m = np.cumsum(len_m[letters]) + (block_m[b - 1] if b else 0)
    end_n = np.cumsum(len_n[letters]) + (block_n[b - 1] if b else 0)
    cut = b * block + int(np.searchsorted(embed_array(end_m, end_n), R, side="right"))
    return word[: 1 + min(cut, len(word) - 1)]


def _inflate_word(word, br_words, br_cumprob, rng_seed, stream, level):
    # One padded row per (letter, branch), in the word's dtype: the image,
    # then -1s.  The images are looked up block by block by (letter, branch)
    # codes, int16 or wider, so the index temporaries stay small, and the
    # padding is dropped at the end.  A letter's branch is the count of its
    # cumulative probabilities, bar the last, that its uniform reaches; the
    # uniforms are drawn a block at a time.
    n_branches = max(len(b) for b in br_words)
    width = max(len(img) for b in br_words for img in b)
    table = np.full((len(br_words), n_branches, width), -1, dtype=word.dtype)
    for i, images in enumerate(br_words):
        for b, img in enumerate(images):
            table[i, b, : len(img)] = img
    table = table.reshape(-1, width)
    code_type = np.promote_types(np.int16, np.min_scalar_type(-len(table)))
    steps = [(i, c) for i, cumprob in enumerate(br_cumprob) for c in cumprob[:-1].tolist()]
    gen = _philox_generator(rng_seed, stream, level) if n_branches > 1 else None
    out = np.empty((len(word), width), dtype=word.dtype)
    block = _block_size(len(word))
    for a in range(0, len(word), block):
        letters = word[a : a + block]
        code = letters.astype(code_type)
        code *= n_branches
        if gen is not None:
            u = gen.random(len(code))
            for i, c in steps:
                code += (u >= c) & (letters == i)
        np.take(table, code, axis=0, out=out[a : a + block], mode="clip")
    if all(len(img) == width for images in br_words for img in images):
        return out.ravel()
    return out[out >= 0]


def realize_geometric(
    rule: SubstitutionRule, seed: str, R: float, rng_seed: int | None = None, stream: int = 0
) -> TypedPointSet:
    """Realize an inflation fixed point on [0, R] as typed left endpoints
    with exact Z[tau] coordinates: the tile starts of realize_word's word."""
    word = realize_word(rule, seed, R, rng_seed, stream)
    starts = _typed_starts(word, [rule.lengths[l] for l in rule.alphabet])
    return TypedPointSet(dict(zip(rule.alphabet, starts)), (0.0, float(R)))


def _typed_starts(word, lengths):
    # Key codes of the tile starts of the word, one int64 array per letter.
    # Each letter's codes are written block by block from running tile-end
    # sums, so nothing spans the whole word but the word.
    len_m = np.array([l.m for l in lengths], dtype=np.int64)
    len_n = np.array([l.n for l in lengths], dtype=np.int64)
    block = _block_size(len(word))
    per_type = sum(
        np.bincount(word[a : a + block], minlength=len(lengths)) for a in range(0, len(word), block)
    )
    starts = [np.empty(count, dtype=np.int64) for count in per_type.tolist()]
    filled = [0] * len(lengths)
    start_m = start_n = 0
    for a in range(0, len(word), block):
        letters = word[a : a + block]
        step_m, step_n = len_m[letters], len_n[letters]
        # the start of each tile: the running sum before it
        m = np.cumsum(step_m)
        m -= step_m
        m += start_m
        n = np.cumsum(step_n)
        n -= step_n
        n += start_n
        start_m, start_n = int(m[-1] + step_m[-1]), int(n[-1] + step_n[-1])
        codes = _codes(m, n)
        for t, out in enumerate(starts):
            rows = codes[letters == t]
            out[filled[t] : filled[t] + len(rows)] = rows
            filled[t] += len(rows)
    return starts


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


def _json_prob(obj) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not math.isfinite(obj):
        raise RuleError(f"branch prob must be a finite JSON number, got {obj!r}")
    return float(obj)


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
    if not isinstance(obj, dict):
        raise RuleError("a rule must be a JSON object")
    known = {"name", "alphabet", "images", "lengths", "inflation_factor"}
    extra = set(obj) - known
    if extra:
        raise RuleError(f"unknown rule keys {sorted(extra)}")
    alphabet = obj.get("alphabet")
    if not (isinstance(alphabet, list) and all(isinstance(letter, str) for letter in alphabet)):
        raise RuleError(f"rule alphabet must be a list of letters, got {alphabet!r}")
    for key in ("images", "lengths"):
        if not isinstance(obj.get(key), dict):
            raise RuleError(f"rule {key} must be an object per letter, got {obj.get(key)!r}")
    images = {}
    for letter, img in obj["images"].items():
        if isinstance(img, list) and img and isinstance(img[0], dict):
            images[letter] = tuple(
                Branch(_json_prob(br["prob"]), tuple(br["word"])) for br in img
            )
        else:
            images[letter] = (Branch(1.0, tuple(img)),)
    lengths = {l: _length_from_json(v) for l, v in obj["lengths"].items()}
    factor = None
    if "inflation_factor" in obj:
        factor = _length_from_json(obj["inflation_factor"])
    return SubstitutionRule(
        alphabet=tuple(alphabet),
        images=images,
        lengths=lengths,
        name=str(obj.get("name", "custom")),
        inflation_factor=factor,
    )
