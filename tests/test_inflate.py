import bisect
import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import cps, inflate
from combsplit.inflate import (
    Branch,
    RuleError,
    SubstitutionRule,
    builtin_rule,
    realize_geometric,
    realize_word,
    rule_from_json,
    substitution_matrix,
)
from combsplit.zroot5 import QuadraticInt, SQRT5, TAU, _decode, embed_array

TWISTED_MATRIX = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
)


def test_substitution_matrices():
    assert np.array_equal(
        substitution_matrix(inflate.twisted_fibonacci_rule()), TWISTED_MATRIX
    )
    assert np.array_equal(
        substitution_matrix(inflate.fibonacci_rule()), [[1, 1], [1, 0]]
    )
    assert np.array_equal(
        substitution_matrix(inflate.thue_morse_rule()), [[1, 1], [1, 1]]
    )


def test_matrix_column_sums_are_image_lengths():
    for name in ("fibonacci", "twisted_fibonacci", "thue_morse"):
        rule = builtin_rule(name)
        mat = substitution_matrix(rule)
        for j, letter in enumerate(rule.alphabet):
            assert mat[:, j].sum() == len(rule.images[letter][0].word)


def test_realize_fibonacci_small():
    tps = realize_geometric(inflate.fibonacci_rule(), "a", 5)
    assert tps.points["a"].tolist() == [[0, 0], [1, 1], [1, 2]]
    assert tps.points["b"].tolist() == [[0, 1]]


def test_realize_thue_morse_small():
    tps = realize_geometric(inflate.thue_morse_rule(), "a", 8)
    assert tps.points["a"][:, 0].tolist() == [0, 3, 5, 6]
    assert tps.points["b"][:, 0].tolist() == [1, 2, 4, 7]
    assert np.all(tps.points["a"][:, 1] == 0)


def test_realize_zero_length():
    tps = realize_geometric(inflate.fibonacci_rule(), "a", 0)
    assert tps.points["a"].tolist() == [[0, 0]]
    assert tps.points["b"].tolist() == []


def test_realize_rejects_bad_seed():
    with pytest.raises(RuleError):
        realize_geometric(inflate.fibonacci_rule(), "b", 10)
    with pytest.raises(RuleError):
        realize_geometric(inflate.fibonacci_rule(), "x", 10)


def test_length_identity_exact():
    for name in ("fibonacci", "twisted_fibonacci", "thue_morse"):
        builtin_rule(name).check_length_identity()
    inflate.random_fibonacci_rule(0.3).check_length_identity()


def test_declared_inflation_factor_is_checked_at_construction():
    images = {"a": (Branch(1.0, ("a", "b")),), "b": (Branch(1.0, ("a",)),)}
    one, tau = QuadraticInt(1, 0), QuadraticInt(0, 1)
    with pytest.raises(RuleError, match="not the inflation factor times its length"):
        SubstitutionRule(alphabet=("a", "b"), images=images, lengths={"a": one, "b": one},
                         inflation_factor=tau)
    # without a factor the same lengths make a rule
    SubstitutionRule(alphabet=("a", "b"), images=images, lengths={"a": one, "b": one})
    SubstitutionRule(alphabet=("a", "b"), images=images, lengths={"a": tau, "b": one},
                     inflation_factor=tau)


def _level_ends(rule, R):
    # the embedded length of the level-L word for L = 0, 1, ... until one
    # reaches R, from the letter counts of words substituted letter by
    # letter (the first branch: the counts do not depend on it)
    word, ends = ["a"], []
    while not ends or ends[-1] < R:
        tally = Counter(word)
        end = sum((rule.lengths[l] * tally[l] for l in rule.alphabet), QuadraticInt(0, 0))
        ends.append(float(embed_array(np.array([end.m]), np.array([end.n]))[0]))
        word = [s for l in word for s in rule.images[l][0].word]
    return ends


@pytest.mark.parametrize("name", ["fibonacci", "twisted_fibonacci", "thue_morse",
                                  "random_fibonacci"])
def test_inflation_depth_is_the_first_level_that_covers_R(name, monkeypatch):
    rule = builtin_rule(name)
    rng_seed = 11 if rule.is_random else None
    ends = _level_ends(rule, 1e4)
    tiles = realize_geometric(rule, "a", 1e3, rng_seed).comb().positions
    levels = []
    inflate_word = inflate._inflate_word

    def counting(*args):
        levels.append(args[-1])
        return inflate_word(*args)

    monkeypatch.setattr(inflate, "_inflate_word", counting)
    drawn = np.random.default_rng(3).uniform(0.0, 1e4, 40).tolist()
    for R in [0.0, 1e4, *drawn, *np.sort(tiles)[1:].tolist()]:
        levels.clear()
        realize_word(rule, "a", R, rng_seed)
        assert levels == list(range(bisect.bisect_left(ends, R))), R


def test_rule_without_inflation_factor_realizes_within_the_budget(monkeypatch):
    doc = {"alphabet": ["a", "b"], "images": {"a": ["a", "b"], "b": ["a"]},
           "lengths": {"a": {"n": 1}, "b": 1}}
    rule = rule_from_json(doc)
    assert rule.inflation_factor is None
    got = realize_geometric(rule, "a", 1000.0)
    want = realize_geometric(inflate.fibonacci_rule(), "a", 1000.0)
    for t in ("a", "b"):
        assert np.array_equal(got.codes[t], want.codes[t])

    def no_inflation(*args):
        raise AssertionError("inflated a word over the points budget")

    monkeypatch.setattr(cps, "MAX_POINTS", 1000)
    monkeypatch.setattr(inflate, "_inflate_word", no_inflation)
    with pytest.raises(ValueError, match=r"realizing custom on \[0, 1400\] needs about "
                                         r"1\.01e\+03 points, over the budget of MAX_POINTS"):
        realize_geometric(rule, "a", 1400.0)


@pytest.mark.parametrize("name", ["fibonacci", "twisted_fibonacci", "thue_morse",
                                  "random_fibonacci"])
def test_huge_R_is_refused_by_the_budget_with_a_finite_count(name, monkeypatch):
    # the tallies run past the depth limit, but the budget refuses R first
    def no_inflation(*args):
        raise AssertionError("inflated a word over the points budget")

    monkeypatch.setattr(inflate, "_inflate_word", no_inflation)
    with pytest.raises(ValueError, match="over the budget of MAX_POINTS") as err:
        realize_word(builtin_rule(name), "a", 1e300, rng_seed=1)
    assert not isinstance(err.value, RuleError)
    count = float(re.search(r"needs about (\S+) points", str(err.value)).group(1))
    assert math.isfinite(count) and count > cps.MAX_POINTS


def test_densities_converge():
    predictions = {
        "fibonacci": TAU / SQRT5,
        "thue_morse": 1.0,
        "twisted_fibonacci": TAU / SQRT5,
    }
    for name, want in predictions.items():
        rule = builtin_rule(name)
        coarse = realize_geometric(rule, "a", 100.0).count() / 100.0
        fine = realize_geometric(rule, "a", 10_000.0).count() / 10_000.0
        assert abs(fine - want) < abs(coarse - want)
        assert abs(fine - want) / want < 0.01


def test_densities_examples():
    tm = realize_geometric(inflate.thue_morse_rule(), "a", 10_000.0)
    assert tm.count("a") / 10_000.0 == pytest.approx(0.5, rel=0.01)
    assert tm.count("b") / 10_000.0 == pytest.approx(0.5, rel=0.01)

    tw = realize_geometric(inflate.twisted_fibonacci_rule(), "a", 10_000.0)
    assert tw.count("a") / 10_000.0 == pytest.approx(0.2236, rel=0.01)


def test_branch_dependent_counts_rejected():
    with pytest.raises(RuleError):
        SubstitutionRule(
            alphabet=("a", "b"),
            images={
                "a": (Branch(0.5, ("a", "b")), Branch(0.5, ("a", "a", "b"))),
                "b": (Branch(1.0, ("a",)),),
            },
            lengths={"a": QuadraticInt(0, 1), "b": QuadraticInt(1, 0)},
        )


def test_non_primitive_rule_rejected():
    with pytest.raises(RuleError):
        SubstitutionRule(
            alphabet=("a", "b"),
            images={"a": (Branch(1.0, ("a",)),), "b": (Branch(1.0, ("b",)),)},
            lengths={"a": QuadraticInt(1, 0), "b": QuadraticInt(1, 0)},
        )


def test_letters_outside_the_alphabet_rejected():
    one, word = QuadraticInt(1, 0), (Branch(1.0, ("a", "b")),)
    fib = {"a": word, "b": (Branch(1.0, ("a",)),)}
    with pytest.raises(RuleError, match=r"^letters outside the alphabet \['a', 'b'\]: "
                                        r"images \['c'\]$"):
        SubstitutionRule(("a", "b"), {**fib, "c": word}, {"a": one, "b": one})
    with pytest.raises(RuleError, match=r"^letters outside the alphabet \['a', 'b'\]: "
                                        r"lengths \['c', 'd'\]$"):
        SubstitutionRule(("a", "b"), fib, {"a": one, "b": one, "c": one, "d": one})


def test_bad_probabilities_rejected():
    with pytest.raises(RuleError):
        SubstitutionRule(
            alphabet=("a", "b"),
            images={
                "a": (Branch(0.7, ("a", "b")), Branch(0.7, ("b", "a"))),
                "b": (Branch(1.0, ("a",)),),
            },
            lengths={"a": QuadraticInt(0, 1), "b": QuadraticInt(1, 0)},
        )


def test_random_rule_needs_seed():
    with pytest.raises(RuleError):
        realize_geometric(inflate.random_fibonacci_rule(0.5), "a", 100)


def test_rule_from_json_roundtrip():
    doc = {
        "name": "fibonacci",
        "alphabet": ["a", "b"],
        "images": {"a": ["a", "b"], "b": ["a"]},
        "lengths": {"a": {"m": 0, "n": 1}, "b": {"m": 1, "n": 0}},
        "inflation_factor": {"m": 0, "n": 1},
    }
    rule = rule_from_json(doc)
    tps = realize_geometric(rule, "a", 5)
    assert tps.points["a"].tolist() == [[0, 0], [1, 1], [1, 2]]
    rule.check_length_identity()


def test_rule_from_json_rejects_unknown_keys():
    with pytest.raises(RuleError):
        rule_from_json({"alphabet": ["a"], "images": {}, "lengths": {}, "zzz": 1})


def test_rule_from_json_probabilistic():
    doc = {
        "alphabet": ["a", "b"],
        "images": {
            "a": [
                {"prob": 0.5, "word": ["a", "b"]},
                {"prob": 0.5, "word": ["b", "a"]},
            ],
            "b": ["a"],
        },
        "lengths": {"a": {"n": 1}, "b": {"m": 1}},
    }
    rule = rule_from_json(doc)
    assert rule.is_random
    tps = realize_geometric(rule, "a", 200, rng_seed=3)
    assert tps.count() > 100


def test_float_lengths_rejected():
    images = {"a": (Branch(1.0, ("a", "b")),), "b": (Branch(1.0, ("a",)),)}
    for lengths in ({"a": 1.5, "b": 1.0}, {"a": 4.294967296, "b": 1.0},
                    {"a": QuadraticInt(0, 1), "b": 1}):
        with pytest.raises(RuleError, match="exact"):
            SubstitutionRule(alphabet=("a", "b"), images=images, lengths=lengths)
    doc = {"alphabet": ["a", "b"], "images": {"a": ["a", "b"], "b": ["a"]}}
    for bad in (4.294967296, 1.0, True, "1", None):
        for lengths in ({"a": bad, "b": 1}, {"a": {"m": 0, "n": bad}, "b": 1}):
            with pytest.raises(RuleError):
                rule_from_json({**doc, "lengths": lengths})


def test_non_positive_tile_lengths_rejected():
    images = {"a": (Branch(1.0, ("a", "b")),), "b": (Branch(1.0, ("a",)),)}
    # 1 - tau < 0; 2 - tau > 0 has a negative component and is accepted
    for bad in (QuadraticInt(0, 0), QuadraticInt(-1, 0), QuadraticInt(1, -1)):
        with pytest.raises(RuleError, match="positive"):
            SubstitutionRule(alphabet=("a", "b"), images=images,
                             lengths={"a": QuadraticInt(0, 1), "b": bad})
    SubstitutionRule(alphabet=("a", "b"), images=images,
                     lengths={"a": QuadraticInt(1, 0), "b": QuadraticInt(2, -1)})


@pytest.mark.parametrize("name", ["fibonacci", "twisted_fibonacci", "thue_morse"])
def test_realize_keeps_the_starts_up_to_R(name):
    # The construction that built keys for the whole inflated word and then
    # kept the starts whose embedding is at most R, applied to a longer
    # realization of the same fixed point, is the oracle.  R also lands
    # exactly on a point inside the word, which is kept.
    rule = builtin_rule(name)
    longer = realize_geometric(rule, "a", 3000.0)
    x = np.sort(np.concatenate([embed_array(p[:, 0], p[:, 1]) for p in longer.points.values()]))
    for R in (0.0, 0.5, 7.5, float(x[100]), float(x[1234]), 2999.9):
        tps = realize_geometric(rule, "a", R)
        for t, points in longer.points.items():
            kept = embed_array(points[:, 0], points[:, 1]) <= R
            assert np.array_equal(tps.points[t], points[kept])
        assert tps.count() == np.count_nonzero(x <= R)


def test_json_integer_lengths_load_exactly():
    doc = {"alphabet": ["a", "b"], "images": {"a": ["a", "b"], "b": ["b", "a"]},
           "lengths": {"a": 1, "b": 1}, "inflation_factor": 2}
    rule = rule_from_json(doc)
    assert rule.lengths == {"a": QuadraticInt(1, 0), "b": QuadraticInt(1, 0)}
    assert rule.inflation_factor == QuadraticInt(2, 0)
    rule.check_length_identity()
    got = realize_geometric(rule, "a", 100.0)
    want = realize_geometric(inflate.thue_morse_rule(), "a", 100.0)
    for t in ("a", "b"):
        assert np.array_equal(got.points[t], want.points[t])


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, -1.0])
def test_realize_rejects_bad_R_before_inflating(monkeypatch, R):
    def no_inflation(*args):
        raise AssertionError("inflated a word for an invalid R")

    monkeypatch.setattr(inflate, "_inflate_word", no_inflation)
    with pytest.raises(RuleError, match="finite and nonnegative"):
        realize_geometric(inflate.fibonacci_rule(), "a", R)


def test_points_budget_is_checked_before_inflating(monkeypatch):
    budget = cps.MAX_POINTS
    monkeypatch.setattr(cps, "MAX_POINTS", 1000)
    # the doubling chain lays one point per unit length
    assert realize_geometric(inflate.thue_morse_rule(), "a", 990.0).count() == 991

    def no_inflation(*args):
        raise AssertionError("inflated a word over the points budget")

    monkeypatch.setattr(inflate, "_inflate_word", no_inflation)
    # the golden chains lay tau / sqrt(5) = 0.72 points per unit length
    for rule, R in ((inflate.thue_morse_rule(), 1010.0), (inflate.fibonacci_rule(), 1400.0),
                    (inflate.twisted_fibonacci_rule(), 1400.0)):
        with pytest.raises(ValueError, match="budget of MAX_POINTS = 1000 points"):
            realize_geometric(rule, "a", R)
    monkeypatch.setattr(cps, "MAX_POINTS", budget)
    with pytest.raises(ValueError, match="MAX_POINTS"):
        realize_geometric(inflate.fibonacci_rule(), "a", 1e12)


def test_builtin_rule_unknown_name():
    with pytest.raises(RuleError):
        builtin_rule("penrose")


def test_mixed_branch_counts_realize():
    # letters with different branch counts must not disturb each other's draws
    rule = SubstitutionRule(
        alphabet=("a", "b"),
        images={
            "a": (
                Branch(0.4, ("a", "b")),
                Branch(0.4, ("b", "a")),
                Branch(0.2, ("a", "b")),
            ),
            "b": (Branch(0.5, ("a",)), Branch(0.5, ("a",))),
        },
        lengths={"a": QuadraticInt(0, 1), "b": QuadraticInt(1, 0)},
    )
    tps = realize_geometric(rule, "a", 2000.0, rng_seed=13)
    assert tps.count() / 2000.0 == pytest.approx(TAU / SQRT5, rel=0.02)


def test_typed_point_set_invariants():
    tps = realize_geometric(inflate.twisted_fibonacci_rule(), "a", 500.0)
    seen = set()
    for t, pts in tps.points.items():
        values = pts[:, 0] + pts[:, 1] * TAU
        assert np.all(np.diff(values) > 0)  # strictly increasing
        assert values.min() >= tps.rng[0] and values.max() <= tps.rng[1]
        keys = {tuple(p) for p in pts}
        assert not (keys & seen)  # types pairwise disjoint
        seen |= keys


def reference_inflate_word(word, br_words, br_cumprob, rng_seed, stream, level):
    # the per-(letter, branch) image copy that preceded the padded table
    branch = np.zeros(len(word), dtype=np.int8)
    if any(len(b) > 1 for b in br_words):
        u = inflate._philox_generator(rng_seed, stream, level).random(len(word))
        for i in range(len(br_words)):
            if len(br_words[i]) > 1:
                mask = word == i
                chosen = np.searchsorted(br_cumprob[i], u[mask], side="right")
                branch[mask] = np.minimum(chosen, len(br_words[i]) - 1)
    img_len = np.zeros(len(word), dtype=np.int64)
    for i, images in enumerate(br_words):
        for b, img in enumerate(images):
            img_len[(word == i) & (branch == b)] = len(img)
    starts = np.concatenate(([0], np.cumsum(img_len)[:-1]))
    out = np.empty(int(img_len.sum()), dtype=np.int16)
    for i, images in enumerate(br_words):
        for b, img in enumerate(images):
            mask = (word == i) & (branch == b)
            slots = starts[mask][:, None] + np.arange(len(img))[None, :]
            out[slots.ravel()] = np.tile(img, int(mask.sum()))
    return out


def reference_tile_starts(word, lengths, R):
    # the whole-word tile-end sums and the bisection that preceded the blocks
    end_m = np.cumsum(np.array([l.m for l in lengths], dtype=np.int64)[word])
    end_n = np.cumsum(np.array([l.n for l in lengths], dtype=np.int64)[word])
    kept = 1 + bisect.bisect_right(
        range(len(word) - 1), R, key=lambda k: embed_array(end_m[k : k + 1], end_n[k : k + 1])[0]
    )
    keys = np.zeros((kept, 2), dtype=np.int64)
    keys[1:, 0], keys[1:, 1] = end_m[: kept - 1], end_n[: kept - 1]
    return keys


def reference_realization(rule, R, rng_seed=None):
    idx = {letter: i for i, letter in enumerate(rule.alphabet)}
    br_words = [[np.array([idx[s] for s in br.word], dtype=np.int16) for br in rule.images[l]]
                for l in rule.alphabet]
    br_cumprob = [np.cumsum([br.prob for br in rule.images[l]]) for l in rule.alphabet]
    lengths = [rule.lengths[l] for l in rule.alphabet]
    len_values = np.array([l.embed() for l in lengths])
    word, level = np.array([0], dtype=np.int16), 0
    while float(np.bincount(word, minlength=len(idx)) @ len_values) < R:
        word = reference_inflate_word(word, br_words, br_cumprob, rng_seed, 0, level)
        level += 1
    keys = reference_tile_starts(word, lengths, R)
    word = word[: len(keys)]
    return {letter: keys[word == i] for letter, i in idx.items()}, word, lengths


REALIZED_RULES = (
    (inflate.fibonacci_rule(), None),
    (inflate.twisted_fibonacci_rule(), None),
    (inflate.thue_morse_rule(), None),
    (SubstitutionRule(  # random, with images of unequal lengths and branch counts
        alphabet=("a", "b", "c"),
        images={"a": (Branch(0.3, ("a", "c", "b")), Branch(0.7, ("a", "b", "c"))),
                "b": (Branch(1.0, ("c",)),),
                "c": (Branch(0.5, ("a", "b")), Branch(0.25, ("b", "a")), Branch(0.25, ("a", "b")))},
        lengths={"a": QuadraticInt(0, 1), "b": QuadraticInt(1, 0), "c": QuadraticInt(1, 1)},
    ), 29),
)


@pytest.mark.parametrize("block", [3, 7])
@pytest.mark.parametrize("rule,rng_seed", REALIZED_RULES, ids=lambda x: getattr(x, "name", x))
def test_realize_matches_the_whole_word_path(monkeypatch, block, rule, rng_seed):
    monkeypatch.setattr(inflate, "LETTER_BLOCK", block)
    _, word, lengths = reference_realization(rule, 60.0, rng_seed)
    ends = np.cumsum([lengths[i].embed() for i in word.tolist()])
    # every tile end (a cut exactly on a start) and every point between two,
    # so the cut falls at every place relative to the block edges
    cuts = [0.0, 0.5, *ends.tolist(), *((ends[:-1] + ends[1:]) / 2).tolist()]
    assert len(cuts) > 60
    for R in cuts:
        want, want_word, _ = reference_realization(rule, R, rng_seed)
        got = realize_geometric(rule, "a", R, rng_seed=rng_seed)
        assert list(got.points) == list(want)
        for t in want:
            assert got.points[t].dtype == np.int64
            assert np.array_equal(got.points[t], want[t]), (R, t)
        # the two steps of a realization: the cut word, then its tile starts
        word = inflate.realize_word(rule, "a", R, rng_seed=rng_seed)
        assert word.dtype == np.int8 and np.array_equal(word, want_word), R
        starts = inflate._typed_starts(word, lengths)
        for t, codes in zip(want, starts):
            assert np.array_equal(_decode(codes), want[t]), (R, t)


@pytest.mark.parametrize("rule,rng_seed", REALIZED_RULES, ids=lambda x: getattr(x, "name", x))
def test_realize_matches_the_whole_word_path_over_many_blocks(rule, rng_seed):
    for R in (1024.0, 4096.0, 5000.0, 4.5e4):
        want, _, _ = reference_realization(rule, R, rng_seed)
        got = realize_geometric(rule, "a", R, rng_seed=rng_seed)
        for t in want:
            assert np.array_equal(got.points[t], want[t]), (R, t)


@given(
    rule=st.sampled_from([inflate.random_fibonacci_rule(0.5), REALIZED_RULES[3][0]]),
    rng_seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([3, 7, 1024]),
    R=st.one_of(st.floats(0.0, 3000.0), st.sampled_from([1023.0, 1024.0, 1025.0, 2048.0])),
)
@settings(max_examples=40, deadline=None)
def test_branch_draws_by_block_equal_one_whole_word_draw(rule, rng_seed, block, R):
    # Philox buffers its outputs, so uniforms drawn block by block from one
    # generator per level equal one draw over the whole word
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inflate, "LETTER_BLOCK", block)
        got = realize_geometric(rule, "a", R, rng_seed=rng_seed)
    want, _, _ = reference_realization(rule, R, rng_seed)
    for t in want:
        assert np.array_equal(got.points[t], want[t]), t


def test_thue_morse_word_takes_under_two_bytes_per_letter():
    # the 2**20-letter word of the tm suite: the word, the previous level and
    # block temporaries; the int16 word with 2**16-letter blocks took 3.6 B
    rule = inflate.thue_morse_rule()
    inflate.realize_word(rule, "a", 64.0)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        word = inflate.realize_word(rule, "a", float(2**20))
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert len(word) == 2**20 and peak <= 2 * 2**20, peak
