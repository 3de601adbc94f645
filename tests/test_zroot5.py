import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from combsplit.suites import preset_module_points
from combsplit.zroot5 import (
    PHASE_K_BOUND,
    PHASE_KEY_BOUND,
    SIGN_ARRAY_BOUND,
    SQRT5,
    TAU,
    FourierModulePoint,
    QuadraticInt,
    _char_table,
    _code,
    _code_position,
    _codes,
    _integer_sites,
    _key_parts,
    embed_array,
    embed_star_array,
    frac_phases,
    sign_of,
)

from phase_oracle import frac_phase

coords = st.integers(min_value=-10**6, max_value=10**6)
small_coords = st.integers(min_value=-1000, max_value=1000)


def qi(m, n):
    return QuadraticInt(m, n)


def _pair(x: QuadraticInt) -> tuple[int, int]:
    return (x.m, x.n)


def test_mul_examples():
    assert _pair(qi(0, 1) * qi(0, 1)) == (1, 1)
    assert _pair(qi(1, 1) * qi(1, 1)) == (2, 3)
    assert _pair(qi(2, -1) * qi(0, 1)) == (-1, 1)


def test_star_examples():
    assert _pair(qi(0, 1).star()) == (1, -1)
    assert _pair(qi(2, 3).star()) == (5, -3)


def test_embed_examples():
    assert qi(0, 1).embed() == pytest.approx(1.6180339887, abs=1e-9)
    # the conjugate of tau, 1 - tau
    assert embed_star_array(np.array([0]), np.array([1]))[0] == pytest.approx(
        -0.6180339887, abs=1e-9)
    assert qi(-1, 1).embed() == pytest.approx(0.6180339887, abs=1e-9)


def _phase_oracle(k: FourierModulePoint, x: QuadraticInt) -> float:
    # independent extended-precision evaluation of frac(k*x)
    getcontext().prec = 60
    sqrt5 = Decimal(5).sqrt()
    a, b, m, n = k.a, k.b, x.m, x.n
    A = a * m + b * n
    B = a * n + b * m + b * n
    value = ((2 * A + B) * sqrt5 + 5 * B) / 10
    return float(value - int(value.to_integral_value(rounding="ROUND_FLOOR")))


def test_frac_phase_examples():
    k10, x10 = FourierModulePoint(1, 0), qi(1, 0)
    assert frac_phase(k10, x10) == pytest.approx(0.4472135955, abs=1e-10)
    assert frac_phase(k10, x10) == pytest.approx(_phase_oracle(k10, x10), abs=1e-12)

    assert frac_phase(FourierModulePoint(2, 3), qi(0, 0)) == 0.0

    k01, x01 = FourierModulePoint(0, 1), qi(0, 1)
    assert frac_phase(k01, x01) == pytest.approx(0.1708203932, abs=1e-10)
    assert frac_phase(k01, x01) == pytest.approx(_phase_oracle(k01, x01), abs=1e-12)


@given(coords, coords, coords, coords)
def test_star_is_ring_homomorphism(m1, n1, m2, n2):
    x, y = qi(m1, n1), qi(m2, n2)
    assert (x * y).star() == x.star() * y.star()
    assert (x + y).star() == x.star() + y.star()
    assert x.star().star() == x


@given(coords, coords, coords, coords)
def test_embed_respects_multiplication(m1, n1, m2, n2):
    x, y = qi(m1, n1), qi(m2, n2)
    product = (x * y).embed()
    direct = x.embed() * y.embed()
    assert abs(product - direct) <= 1e-9 * max(1.0, abs(direct))


@given(small_coords, small_coords, st.integers(-5, 5), st.integers(-5, 5))
def test_frac_phase_matches_direct_exponential(m, n, a, b):
    k, x = FourierModulePoint(a, b), qi(m, n)
    via_phase = np.exp(2j * math.pi * frac_phase(k, x))
    direct = np.exp(2j * math.pi * k.value() * x.embed())
    assert abs(via_phase - direct) < 1e-6


def test_frac_phase_huge_argument_matches_oracle():
    # head terms up to order 1e18, far beyond reliable double precision
    cases = [
        (FourierModulePoint(3, 2), qi(10**8, 3 * 10**8)),
        (FourierModulePoint(3, 2), qi(5 * 10**16, 5 * 10**16)),
        (FourierModulePoint(-2, 1), qi(-(10**17), 3 * 10**17)),
    ]
    for k, x in cases:
        assert abs(2 * (k.a * x.m + k.b * x.n)
                   + (k.a * x.n + k.b * x.m + k.b * x.n)) <= 10**18
        assert frac_phase(k, x) == pytest.approx(_phase_oracle(k, x), abs=1e-12)


def test_frac_phases_vectorized_matches_scalar():
    k = FourierModulePoint(1, 1)
    ms, ns = [0, 3, -5, 144], [1, -2, 8, 89]
    scalar = [frac_phase(k, qi(m, n)) for m, n in zip(ms, ns)]
    assert frac_phases(k, ms, ns).tolist() == scalar
    assert frac_phases(k, np.array(ms), np.array(ns)).tolist() == scalar
    assert frac_phases(k, [], []).shape == (0,)


box = st.integers(min_value=-PHASE_KEY_BOUND + 1, max_value=PHASE_KEY_BOUND - 1)
key_lists = st.lists(st.tuples(box, box), min_size=1, max_size=40)
module_coords = st.integers(-40, 40)


@given(key_lists, module_coords, module_coords)
def test_frac_phases_equal_scalar_bit_for_bit(keys, a, b):
    k = FourierModulePoint(a, b)
    ms, ns = (np.array(c, dtype=np.int64) for c in zip(*keys))
    vec = frac_phases(k, ms, ns)
    assert vec.tolist() == [frac_phase(k, qi(m, n)) for m, n in keys]
    assert np.all((vec >= 0.0) & (vec < 1.0))


def _mp_phase(k: FourierModulePoint, m: int, n: int):
    A = k.a * m + k.b * n
    B = k.a * n + k.b * m + k.b * n
    with mpmath.workdps(60):
        value = ((2 * A + B) * mpmath.sqrt(5) + 5 * B) / 10
        return value - mpmath.floor(value)


@given(key_lists, st.sampled_from(preset_module_points()))
def test_frac_phases_within_one_ulp_of_mpmath(keys, k):
    ms, ns = zip(*keys)
    for phase, m, n in zip(frac_phases(k, ms, ns).tolist(), ms, ns):
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(phase) - _mp_phase(k, m, n)) <= math.ulp(phase)


def test_frac_phases_near_integers():
    # Fibonacci keys put k*x within ~1/|2A + B| of an integer: the phases
    # below 2^-10 take the exact Python-int conversion
    fib = [0, 1]
    while fib[-1] < PHASE_KEY_BOUND:
        fib.append(fib[-1] + fib[-2])
    fib = fib[:-1]
    keys = [(s * f + d, t * g) for f in fib for g in fib
            for s in (1, -1) for t in (1, -1) for d in (-1, 0, 1)
            if abs(s * f + d) < PHASE_KEY_BOUND]
    ms, ns = (np.array(c, dtype=np.int64) for c in zip(*keys))
    tiny = 0
    for k in preset_module_points()[:8] + [FourierModulePoint(1, 0), FourierModulePoint(0, 1)]:
        vec = frac_phases(k, ms, ns)
        assert vec.tolist() == [frac_phase(k, qi(m, n)) for m, n in keys]
        assert np.all((vec >= 0.0) & (vec < 1.0))
        tiny += int(np.sum((vec > 0) & (vec < 2.0**-10)))
        # the keys closest to an integer (not the exact zeros), against mpmath
        gap = np.where(vec > 0, np.minimum(vec, 1 - vec), 1.0)
        for i in np.argsort(gap, kind="stable")[:5].tolist():
            with mpmath.workdps(60):
                assert abs(mpmath.mpf(vec[i]) - _mp_phase(k, *keys[i])) <= math.ulp(vec[i])
    assert tiny > 0


@given(module_coords, module_coords, st.integers(-10**6, 10**6))
def test_rational_phase_keys_are_exactly_zero(a, b, t):
    # 2A + B = m(2a + b) + n(a + 3b) = 0 makes k*x = -A an integer
    k = FourierModulePoint(a, b)
    c, d = 2 * a + b, a + 3 * b
    g = math.gcd(c, d) or 1
    m, n = t * d // g, -t * c // g
    vec = frac_phases(k, np.array([m, 1]), np.array([n, 0]))
    assert vec[0] == frac_phase(k, qi(m, n)) == 0.0


def test_frac_phases_rejects_the_bound():
    B, k = PHASE_KEY_BOUND, FourierModulePoint(2, -1)
    for m, n in ((B, 0), (-B, 0), (0, B), (0, -B), (2**62, 0), (-2**63, 0)):
        with pytest.raises(ValueError, match="reaches"):
            frac_phases(k, np.array([0, m], dtype=np.int64), np.array([0, n], dtype=np.int64))
    with pytest.raises(ValueError, match="int64"):
        frac_phases(k, [0, 2**64], [0, 0])
    for a, b in ((PHASE_K_BOUND, 0), (0, -PHASE_K_BOUND)):
        with pytest.raises(ValueError, match="reaches"):
            frac_phases(FourierModulePoint(a, b), np.array([0, 1]), np.array([0, 1]))
    # one below every bound is still exact
    k = FourierModulePoint(PHASE_K_BOUND - 1, -(PHASE_K_BOUND - 1))
    ms, ns = [B - 1, -(B - 1)], [-(B - 1), B - 1]
    assert frac_phases(k, ms, ns).tolist() == [
        frac_phase(k, qi(m, n)) for m, n in zip(ms, ns)]


@given(coords, coords)
def test_sign_of_matches_embedding(m, n):
    s = sign_of(m, n)
    v = m + n * TAU
    if s == 0:
        assert m == 0 and n == 0
    elif abs(v) > 1e-6:
        assert s == (1 if v > 0 else -1)


@st.composite
def array_sign_pairs(draw):
    """(m, n) with |n| and |2m + n| below the array bound, over the whole box."""
    B = SIGN_ARRAY_BOUND
    n = draw(st.integers(-B + 1, B - 1))
    m = draw(st.integers(-((B - 1 + n) // 2), (B - 1 - n) // 2))
    return m, n


def _assert_array_sign_matches_scalar(pairs):
    ms = np.array([m for m, _ in pairs], dtype=np.int64)
    ns = np.array([n for _, n in pairs], dtype=np.int64)
    got = sign_of(ms, ns)
    assert got.dtype == np.int64
    assert got.tolist() == [sign_of(m, n) for m, n in pairs]


@given(st.lists(array_sign_pairs(), min_size=1, max_size=40))
def test_array_sign_of_matches_scalar(pairs):
    _assert_array_sign_matches_scalar(pairs)


def test_array_sign_of_on_fibonacci_near_zeros():
    # F_{k+1} - F_k*tau = (1 - tau)^k is the closest approach to zero at
    # that size; take it, its negation and its neighbours up to the bound
    B = SIGN_ARRAY_BOUND
    fib = [1, 1]
    while fib[-1] < B:
        fib.append(fib[-1] + fib[-2])
    near = [(f1, -f0) for f0, f1 in zip(fib, fib[1:]) if 2 * f1 - f0 < B]
    assert max(2 * m + n for m, n in near) > B // 2
    signs = sign_of(np.array([m for m, _ in near]), np.array([n for _, n in near]))
    assert signs.tolist() == [(-1) ** k for k in range(1, len(near) + 1)]
    pairs = [
        (s * (m + dm), s * (n + dn))
        for m, n in near for dm in (-1, 0, 1) for dn in (-1, 0, 1) for s in (1, -1)
    ]
    _assert_array_sign_matches_scalar(
        [(m, n) for m, n in pairs if abs(2 * m + n) < B and abs(n) < B]
    )


def test_array_sign_of_rejects_the_bound():
    B = SIGN_ARRAY_BOUND
    for m, n in ((B // 2, 0), (-B // 2, 0), (-B // 2, B), (B // 2, -B),
                 (2**62, 0), (-2**63, 0)):
        with pytest.raises(ValueError, match="2m \\+ n"):
            sign_of(np.array([0, m], dtype=np.int64), np.array([0, n], dtype=np.int64))
    # one below the bound on either coordinate is still exact
    assert sign_of(np.array([B // 2, -B // 2 + 1]), np.array([-1, B - 1])).tolist() == [1, 1]


@given(coords, coords, coords, coords)
def test_distinct_elements_are_strictly_ordered(m1, n1, m2, n2):
    x, y = qi(m1, n1), qi(m2, n2)
    if (m1, n1) == (m2, n2):
        assert not (x < y) and not (y < x)
    else:
        assert (x < y) != (y < x)


def test_module_point_star_sign_convention():
    k = FourierModulePoint(1, 0)
    assert k.value() == pytest.approx(1 / SQRT5)
    assert k.star_value() == pytest.approx(-1 / SQRT5)


@given(
    st.lists(st.tuples(st.integers(-(2**31) + 1, 2**31 - 1), st.integers(-(2**31) + 1, 2**31 - 1)),
             max_size=40),
    st.sampled_from([1, -1, 3]),
)
def test_embed_array_rounds_as_the_two_operation_formula(pairs, step):
    # strided key columns, as a comb's keys[:, 0] and keys[:, 1]
    keys = np.array(pairs, dtype=np.int64).reshape(-1, 2)[::step]
    m, n = keys[:, 0], keys[:, 1]
    before = keys.copy()
    got = embed_array(m, n)
    assert got.dtype == np.float64
    assert got.tobytes() == (m.astype(np.float64) + n.astype(np.float64) * TAU).tobytes()
    assert np.array_equal(keys, before)


def test_char_table_is_correctly_rounded_bit_for_bit():
    # each part of exp(-2 pi i j / 256) against mpmath's correctly rounded
    # cospi and sinpi of j / 128 (exact zeros as +0.0)
    table = _char_table()
    assert table.dtype == np.complex128 and table.shape == (256,)
    with mpmath.workprec(256):
        for j, value in enumerate(table.tolist()):
            cos, sin = mpmath.cospi(mpmath.mpf(j) / 128), mpmath.sinpi(mpmath.mpf(j) / 128)
            want = float(cos) + 0.0, float(-sin) + 0.0  # float() rounds to nearest
            assert (value.real.hex(), value.imag.hex()) == (want[0].hex(), want[1].hex()), j


def test_exact_zero_words_convert_without_the_python_loop():
    # integer phases give the word 0, which converts to +0.0 as it is; the
    # exact Python-int path for words below 2^54 now skips those words, and
    # the bytes equal that path run over every small word, zeros included
    from combsplit import zroot5

    rng = np.random.default_rng(52)
    m, n = (rng.integers(-PHASE_KEY_BOUND + 1, PHASE_KEY_BOUND, size=10**5) for _ in range(2))
    for k in (FourierModulePoint(0, 0), FourierModulePoint(1, 0), FourierModulePoint(2, -1)):
        hi, lo = zroot5._phase_words(k, *zroot5._key_offsets(m, n))
        want = (hi | (lo != 0)).astype(np.float64) * 2.0**-64
        for i in np.flatnonzero(hi < np.uint64(2**54)).tolist():
            want[i] = (int(hi[i]) << 64 | int(lo[i])) / 2**128
        assert frac_phases(k, m, n).tobytes() == want.tobytes()
    assert frac_phases(FourierModulePoint(0, 0), m, n).tobytes() == bytes(8 * 10**5)


key_parts = st.integers(-(2**31) + 1, 2**31 - 1)


@given(st.lists(st.tuples(key_parts, key_parts), min_size=1, max_size=20),
       st.integers(-(2**40), 2**40))
def test_one_code_helpers_agree_with_the_array_codes(keys, far):
    m, n = (np.array(part, dtype=np.int64) for part in zip(*keys))
    codes = _codes(m, n)
    assert [_code(a, b) for a, b in keys] == codes.tolist()
    # a key at 2**31 or beyond has no code
    assert _code(2**31, 0) is None and _code(0, -(2**31)) is None
    assert _code(far, 0) == (None if abs(far) >= 2**31 else far << 32)
    # one code's position is the double that embed_array forms
    assert [_code_position(c) for c in codes] == embed_array(*_key_parts(codes)).tolist()
    sites = _integer_sites(codes)
    if n.any():
        assert sites is None
    else:
        assert sites.dtype == np.int64 and sites.tolist() == m.tolist()
    assert _integer_sites(_codes(m, np.zeros_like(m))).tolist() == m.tolist()
