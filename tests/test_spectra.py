from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import cps, inflate, spectra, suites
from combsplit.combs import dirac_comb, lattice_comb
from combsplit.spectra import (
    _signs,
    polarisation_zero_check,
    pp_intensity,
    riesz_coefficients,
    tm_eta,
    tm_eta_bruteforce,
)
from combsplit.zroot5 import SQRT5, TAU, FourierModulePoint


def test_eta_small_values():
    table = tm_eta(8)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 3)
    assert table[2] == Fraction(-1, 3)
    assert table[3] == Fraction(1, 3)
    assert table[4] == Fraction(-1, 3)
    assert table[5] == 0
    assert abs(table[6]) <= 1 and table.values[0] == 1


def test_eta_table_is_charged_to_the_points_budget(monkeypatch):
    monkeypatch.setattr(cps, "MAX_POINTS", 9 * spectra.ETA_ENTRY_UNITS)
    assert len(tm_eta(8).values) == 9
    with pytest.raises(ValueError, match=r"^the eta table on 0 <= m <= 9 .* over the budget"):
        tm_eta(9)


def test_eta_recursion_matches_bruteforce():
    brute = tm_eta_bruteforce(64, 2**20)
    rec = tm_eta(64).as_floats()
    assert np.abs(rec - brute).max() <= 2e-3


def test_signed_sequence_prefix():
    # fixed point from the unbarred letter: + - - + - + + -
    assert _signs(0, 8).tolist() == [1, -1, -1, 1, -1, 1, 1, -1]


def test_signed_sequence_matches_substitution():
    n = 4096
    tps = inflate.realize_geometric(inflate.thue_morse_rule(), "a", float(n))
    letters = np.zeros(n, dtype=np.int8)
    letters[tps.points["b"][:, 0][tps.points["b"][:, 0] < n]] = 1
    assert np.array_equal(1 - 2 * letters, _signs(0, n))


def test_riesz_coefficient_values():
    assert riesz_coefficients(1).coefficient(0) == 1
    assert riesz_coefficients(1).coefficient(1) == Fraction(-1, 2)
    for L in (2, 5, 9):
        assert riesz_coefficients(L).coefficient(0) == 1
    rz = riesz_coefficients(20)
    assert abs(rz.coefficient(1) - Fraction(-1, 3)) <= Fraction(1, 10**5)


def test_riesz_matches_eta_exactly_rational():
    rz = riesz_coefficients(20)
    eta = tm_eta(8)
    for m in range(9):
        assert abs(rz.coefficient(m) - eta[m]) <= Fraction(1, 100000)


def test_riesz_symmetry_and_level_contraction():
    rz = riesz_coefficients(10)
    for m in range(0, 9):
        assert rz.coefficient(m) == rz.coefficient(-m)
    for L in range(6, 13):
        prev = riesz_coefficients(L - 1)
        cur = riesz_coefficients(L)
        for m in range(0, 9):
            gap = abs(cur.coefficient_float(m) - prev.coefficient_float(m))
            assert gap <= 2.0 ** -(L - 3)


def test_riesz_positive_on_dyadic_grid():
    # the product's values on the grid j / 2^14, from its folded coefficients
    rz = riesz_coefficients(14)
    folded = np.zeros(2**14)
    np.add.at(folded, np.arange(-rz.support(), rz.support() + 1) % 2**14,
              rz.numerators / rz.denominator)
    assert np.fft.fft(folded).real.min() >= -1e-9


def test_riesz_depth_cap():
    # the whole support at depth 25 is over the points budget; a window of it
    # runs up to depth 31
    with pytest.raises(ValueError, match="MAX_POINTS"):
        riesz_coefficients(25)
    with pytest.raises(ValueError, match="^depth must be at most 31, got 32$"):
        riesz_coefficients(32, 8)


def test_riesz_depth_31_window():
    rz = riesz_coefficients(31, 8)
    assert rz.denominator == 2**31 and len(rz.numerators) == 17
    assert int(abs(rz.numerators).max()) == 2**31  # the coefficient 1 at m = 0
    eta = tm_eta(8)
    for m in range(-8, 9):
        assert rz.coefficient(m) == rz.coefficient(-m)
        assert abs(rz.coefficient(m) - eta[m]) <= 1.3e-9


def test_pp_intensity_zero_frequency_is_density():
    rows = pp_intensity(
        cps.fibonacci_windows(), [FourierModulePoint(0, 0)], {"a": 1.0, "b": 1.0}
    )
    amps = rows[0].amplitudes
    assert amps["a"].real == pytest.approx(1 / SQRT5)
    assert amps["b"].real == pytest.approx((TAU - 1) / SQRT5)
    assert abs(sum(amps.values())) ** 2 == pytest.approx((TAU / SQRT5) ** 2)


def test_pp_intensity_respects_alphas():
    windows = suites.MODEL_SETS["twisted_fibonacci"]
    alphas = {t: 0.5 for t in windows}
    rows = pp_intensity(windows, [FourierModulePoint(0, 0)], alphas)
    # four types at half weight add up to the full chain density
    assert sum(rows[0].amplitudes.values()).real == pytest.approx(2 * TAU / SQRT5 / 2)


@pytest.mark.parametrize("system", ["fibonacci", "twisted_fibonacci"])
def test_pp_intensity_summed_amplitude_at_zero(system):
    # with the preset alphas, sum_t alpha_t vol(W_t) / sqrt 5 is the chain's density
    _, windows, alphas = suites.preset_system(system)
    (row,) = pp_intensity(windows, [FourierModulePoint(0, 0)], alphas)
    want = sum(alphas[t] * w.volume() / SQRT5 for t, w in windows.items())
    total = sum(row.amplitudes.values())
    assert total.imag == 0.0
    assert total.real == pytest.approx(want, rel=1e-15, abs=0.0)
    assert want == pytest.approx(TAU / SQRT5, rel=1e-15)


def test_polarisation_lattice_counting():
    z = lattice_comb(-1200, 1200)
    res_100 = polarisation_zero_check(z, z, "symmetric", 100.0, 1.0)
    assert res_100 == pytest.approx((201 / 200) ** 2 - 1, abs=1e-12)
    res_1000 = polarisation_zero_check(z, z, "symmetric", 1000.0, 1.0)
    assert res_1000 < res_100


def test_polarisation_empty_set():
    empty = dirac_comb(np.empty((0, 2), dtype=np.int64), (-10.0, 10.0))
    assert polarisation_zero_check(empty, empty, "symmetric", 10.0, 0.0) == 0.0


def test_polarisation_golden_chain():
    tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 1000.0)
    comb = tps.comb()
    expected = (TAU / SQRT5) ** 2
    res = polarisation_zero_check(comb, comb, "one_sided", 1000.0, expected)
    assert res / expected <= 0.01


def test_decomposition_report_matches_predictions():
    # the full typed correlation splits into a flat periodic part plus the
    # signed-sequence part, each recovered by the generic splitting kernel
    from combsplit.combs import lattice_comb, linear_combine
    from combsplit.eberlein import decomposition_report

    n = 2**18
    tps = inflate.realize_geometric(inflate.thue_morse_rule(), "a", float(n))
    half = lattice_comb(0, n, 0.5)
    splits = {
        t: (half, linear_combine([(1.0, tps.comb(t)), (-1.0, half)]))
        for t in ("a", "b")
    }
    eta = tm_eta(16)
    for a, b in (("a", "a"), ("a", "b")):
        rep = decomposition_report(
            splits[a], splits[b],
            "one_sided", float(n), 16.0,
            module_k=[0.25, 1 / 3],
        )
        assert rep.bilinear_residual <= 1e-12
        assert rep.cross_sup <= 2e-3
        sign = 1.0 if a == b else -1.0
        for m in range(-16, 17):
            got = complex(rep.zero_part.atom((m, 0))).real
            want = 0.25 * sign * float(eta[m])
            assert got == pytest.approx(want, abs=2e-3)
            s_got = complex(rep.s_part.atom((m, 0))).real
            assert s_got == pytest.approx(0.25, abs=2e-3)
        assert rep.zero_fb_max < 0.05


def dense_riesz_numerators(L):
    # every level over the whole coefficient array, as before the band update
    half = 2**L - 1
    num = np.zeros(2 * half + 1, dtype=np.int64)
    num[half] = 1
    for level in range(L):
        shift = 2**level
        new = 2 * num
        new[shift:] -= num[:-shift]
        new[:-shift] -= num[shift:]
        num = new
    return num


def test_riesz_numerators_equal_the_dense_update():
    for L in range(1, 15):
        rz = riesz_coefficients(L)
        assert rz.numerators.dtype == np.int64 and rz.denominator == 2**L
        assert np.array_equal(rz.numerators, dense_riesz_numerators(L))


@given(st.integers(1, 14).flatmap(lambda L: st.tuples(st.just(L), st.integers(0, 2**L - 1))))
@settings(max_examples=60, deadline=None)
def test_riesz_window_is_a_slice_of_the_dense_update(case):
    L, m_max = case
    rz = riesz_coefficients(L, m_max)
    support = 2**L - 1
    assert rz.numerators.dtype == np.int64 and rz.denominator == 2**L
    want = dense_riesz_numerators(L)[support - m_max : support + m_max + 1]
    assert np.array_equal(rz.numerators, want)
    # beyond the support every coefficient is 0; inside it, beyond the
    # window, asking is an error
    assert rz.coefficient(support + 1) == 0 and rz.coefficient_float(-support - 1) == 0.0
    if m_max < support:
        for m in (m_max + 1, -m_max - 1, support):
            with pytest.raises(ValueError, match="outside the window"):
                rz.coefficient(m)
            with pytest.raises(ValueError, match="outside the window"):
                rz.coefficient_float(m)
    with pytest.raises(ValueError, match="exceeds the support"):
        riesz_coefficients(L, support + 1)


def test_riesz_window_at_depth_20_equals_the_dense_update():
    dense = dense_riesz_numerators(20)
    support = 2**20 - 1
    for m_max in (0, 8, 70):
        got = riesz_coefficients(20, m_max).numerators
        assert np.array_equal(got, dense[support - m_max : support + m_max + 1])


@pytest.mark.parametrize("n_letters", [1, 2, 65, 1000, 4096, 2**20])
def test_eta_oracle_equals_the_float_mean(n_letters):
    t = _signs(0, n_letters).astype(np.float64)
    m_max = min(64, n_letters - 1)
    want = [1.0] + [float(np.mean(t[: n_letters - m] * t[m:])) for m in range(1, m_max + 1)]
    # bit-equal doubles
    assert repr(tm_eta_bruteforce(m_max, n_letters).tolist()) == repr(want)
