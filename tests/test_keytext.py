"""keytext writes the rows [lead]m,n,value<tail> that per-cell str and repr
write, byte for byte, whichever lanes take the exact digit search and
whichever fall back to repr."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import keytext
from combsplit.zroot5 import TAU

KEY = 2**31 - 1  # the largest |m|, |n| of a key code


def per_cell(m, n, values, ends, lead=""):
    """The reference: str for the integers, repr for the floats, row by row."""
    return "".join(f"{lead}{a},{b},{x!r}{end}"
                   for a, b, x, end in zip(m, n, values, ends)).encode()


def check_values(values):
    # one block of rows m,n,value with the values as given
    values = [float(x) for x in values]
    ms, ns = list(range(len(values))), [-1] * len(values)
    fh = io.BytesIO()
    block = (np.array(ms, np.int64), np.array(ns, np.int64), np.array(values, np.float64))
    keytext.write_rows([block], [(fh, None, ["\n"])])
    assert fh.getvalue() == per_cell(ms, ns, values, ["\n"] * len(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_every_finite_double_matches_repr(values):
    # hypothesis draws subnormals, signed zeros and the ends of the range
    check_values(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_every_bit_pattern_matches_repr(patterns):
    # uniform in the bits: most lanes fall back, NaN and infinities among them
    check_values(np.array(patterns, np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 1e16, exclude_max=True), max_size=40), st.booleans())
def test_the_exact_search_matches_repr(values, negate):
    # the lanes that _shortest takes
    check_values([-x if negate else x for x in values])


def neighbours(x, steps=40):
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        out += [up, down]
    return out


def test_edge_values_match_repr():
    rng = np.random.default_rng(38)
    # decimal ties in [2^49, 2^53): a quarter or an eighth sits halfway
    # between two shortest candidates, and the even one is written
    ties = [612857683458612.75, 1e15 + 0.25, 1e15 + 0.75, 2.0**52 + 0.5]
    ties += list(rng.integers(2**51, 2**55, 2000) / 4.0)
    ties += list(rng.integers(2**52, 2**56, 2000) / 8.0)
    # powers of two: those below 1 have lopsided rounding intervals
    powers = [2.0**k for k in range(-60, 60)]
    # the ends of the exact search and of fixed notation
    ends = [x for edge in (1e-4, 0.01, 1e16, 1.0, 10.0) for x in neighbours(edge)]
    # 17 significant digits below 1e-3, and whole numbers below 1e16
    small = list(rng.uniform(1e-4, 1e-3, 2000))
    whole = [float(x) for x in rng.integers(0, 10**16, 2000)] + [2.0**53 + k for k in range(-8, 9)]
    for values in (ties, powers, ends, small, whole):
        check_values(values + [-x for x in values])
    check_values([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-KEY, KEY), st.integers(-KEY, KEY)), max_size=30),
       st.sampled_from(["a,", "b_,", "a%d,", ""]))
def test_key_rows_with_lead_and_tails_match_str_and_repr(keys, lead):
    # the rows of generate (a type cell before the key) and of correlate (a
    # weight, R and variant after it, per level), for keys to +-(2^31 - 1)
    codes = np.array([(m << 32) + n for m, n in keys], np.int64)
    level = np.arange(len(keys), dtype=np.uint8) % 3
    weights = [0.1 + 0.2, -0.5, 1e-05]
    texts = [f",{w!r},0.0,{1e4!r},one\n" for w in weights]
    files = [io.BytesIO(), io.BytesIO()]
    keytext.write_keys(codes, [(files[0], None, ["\n"]), (files[1], level, texts)], lead)
    ms, ns = [m for m, _ in keys], [n for _, n in keys]
    values = [float(m) + float(n) * TAU for m, n in keys]
    assert files[0].getvalue() == per_cell(ms, ns, values, ["\n"] * len(keys), lead)
    assert files[1].getvalue() == per_cell(ms, ns, values, [texts[i] for i in level], lead)


def test_levels_follow_the_rows_across_blocks(monkeypatch):
    # a partial last block, and equal one-text tails written from one text
    monkeypatch.setattr(keytext, "BLOCK", 4)
    keys = [(m, -m // 2) for m in range(-6, 5)]
    codes = np.array([(m << 32) + n for m, n in keys], np.int64)
    level = np.array([i % 2 for i in range(len(keys))], np.uint8)
    texts = [",x\n", ",yy\n"]
    files = [io.BytesIO() for _ in range(3)]
    keytext.write_keys(codes, [(files[0], level, texts), (files[1], None, [",z\n"]),
                               (files[2], None, [",z\n"])])
    ms, ns = [m for m, _ in keys], [n for _, n in keys]
    values = [float(m) + float(n) * TAU for m, n in keys]
    assert files[0].getvalue() == per_cell(ms, ns, values, [texts[i] for i in level])
    assert files[1].getvalue() == files[2].getvalue() == per_cell(
        ms, ns, values, [",z\n"] * len(keys))


def test_a_lead_with_a_nul_is_refused():
    with pytest.raises(ValueError, match="NUL"):
        keytext.write_keys(np.zeros(1, np.int64), [(io.BytesIO(), None, ["\n"])], "a\0,")
