import json
import math

import numpy as np
import pytest

from combsplit import cps, inflate
from combsplit.inflate import (
    Branch,
    RuleError,
    SubstitutionRule,
    builtin_rule,
    densities,
    pf_data,
    realize_geometric,
    rule_from_json,
    substitution_matrix,
)
from combsplit.zroot5 import QuadraticInt, SQRT5, TAU, embed_array

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


def test_pf_data():
    pf = pf_data(substitution_matrix(inflate.twisted_fibonacci_rule()))
    assert pf.eigenvalue == pytest.approx(TAU, abs=1e-12)
    assert pf.left == pytest.approx([TAU, TAU, 1.0, 1.0], abs=1e-10)

    assert pf_data(substitution_matrix(inflate.thue_morse_rule())).eigenvalue == (
        pytest.approx(2.0, abs=1e-12)
    )
    fib = pf_data(substitution_matrix(inflate.fibonacci_rule()))
    assert fib.eigenvalue == pytest.approx(1.6180339887, abs=1e-9)
    assert fib.right.sum() == pytest.approx(1.0)


def test_pf_rejects_non_primitive():
    with pytest.raises(RuleError):
        pf_data(np.array([[1, 0], [0, 1]]))


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


def test_densities_converge():
    predictions = {
        "fibonacci": TAU / SQRT5,
        "thue_morse": 1.0,
        "twisted_fibonacci": TAU / SQRT5,
    }
    for name, want in predictions.items():
        rule = builtin_rule(name)
        coarse = sum(densities(realize_geometric(rule, "a", 100.0)).values())
        fine = sum(densities(realize_geometric(rule, "a", 10_000.0)).values())
        assert abs(fine - want) < abs(coarse - want)
        assert abs(fine - want) / want < 0.01


def test_densities_examples():
    tm = densities(realize_geometric(inflate.thue_morse_rule(), "a", 10_000.0))
    assert tm["a"] == pytest.approx(0.5, rel=0.01)
    assert tm["b"] == pytest.approx(0.5, rel=0.01)

    tw = densities(
        realize_geometric(inflate.twisted_fibonacci_rule(), "a", 10_000.0)
    )
    assert tw["a"] == pytest.approx(0.2236, rel=0.01)


def test_densities_need_positive_range():
    tps = realize_geometric(inflate.fibonacci_rule(), "a", 0)
    with pytest.raises(ValueError):
        densities(tps)


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
    dens = densities(tps)
    assert sum(dens.values()) == pytest.approx(TAU / SQRT5, rel=0.02)


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
