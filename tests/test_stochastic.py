import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import combs, eberlein, inflate, stochastic
from combsplit.combs import dirac_comb, lattice_comb, linear_combine, split_remainder
from combsplit.eberlein import AveragingSpec, pair_correlation
from combsplit.inflate import _inflate_word, random_fibonacci_rule, substitution_matrix
from combsplit.stochastic import (
    RngSpec,
    bernoulli_gas,
    bernoulli_verify,
    empirical_pp_split,
    random_fibonacci,
)
from combsplit.zroot5 import SQRT5, TAU

from combsplit import cps


def bit_row(bits):
    # bits packed by numpy: site t as bit t % 64 of the '<u8' word t // 64
    octets = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return np.pad(octets, (0, -len(octets) % 8)).view("<u8")


def test_bernoulli_degenerate_probabilities():
    assert len(bernoulli_gas(1.0, 100, RngSpec(0))) == 201
    assert len(bernoulli_gas(0.0, 100, RngSpec(0))) == 0


def test_bernoulli_density_at_half():
    pts = bernoulli_gas(0.5, 10**6, RngSpec(123))
    assert abs(len(pts) / (2 * 10**6 + 1) - 0.5) < 1.5e-3


def test_bernoulli_reproducible():
    a = bernoulli_gas(0.37, 5000, RngSpec(99, 2))
    b = bernoulli_gas(0.37, 5000, RngSpec(99, 2))
    assert np.array_equal(a, b)
    c = bernoulli_gas(0.37, 5000, RngSpec(99, 3))
    assert not np.array_equal(a, c)


def test_bernoulli_density_unbiased_over_seeds():
    n = 10**5
    densities = [
        len(bernoulli_gas(0.3, n, RngSpec(seed))) / (2 * n + 1)
        for seed in range(32)
    ]
    assert abs(np.mean(densities) - 0.3) < 5e-4


def test_bernoulli_verify_structure():
    report = bernoulli_verify(0.6, 10**5, RngSpec(42), r_max=20)
    assert report.passed
    assert report.gamma[0] == pytest.approx(0.6, abs=5e-3)
    assert report.gamma[7] == pytest.approx(0.36, abs=8e-3)
    assert report.nu_corr[0] == pytest.approx(0.24, abs=8e-3)
    off_zero = [w for m, w in report.nu_corr.items() if m != 0]
    assert max(abs(w) for w in off_zero) < 8e-3
    assert report.cross_sup < 8e-3
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names)) == 4
    # the report keeps the drawn row, neither shown nor compared
    assert "row" not in repr(report)
    assert report == bernoulli_verify(0.6, 10**5, RngSpec(42), r_max=20)


def test_bernoulli_verify_correlates_without_the_kernel(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called the correlation kernel")

    sizes = []
    check = combs.WeightedComb.__post_init__

    def recorded(comb):
        sizes.append(len(comb))
        check(comb)

    monkeypatch.setattr(eberlein, "eberlein_convolve", refused)
    monkeypatch.setattr(combs.WeightedComb, "__post_init__", recorded)
    report = bernoulli_verify(0.6, 2000, RngSpec(5), r_max=10)
    monkeypatch.undo()
    # three correlations of at most 2 r_max + 1 atoms, no comb over the sites
    assert len(sizes) == 3 and max(sizes) <= 21
    # cross_sup is the sup of either cross correlation
    sites = bernoulli_gas(0.6, 2000, RngSpec(5))
    lam = dirac_comb(np.stack([sites, np.zeros_like(sites)], axis=1), (-2000.0, 2000.0))
    omega = lattice_comb(-2000, 2000, weight=0.6)
    nu = linear_combine([(1.0, lam), (-1.0, omega)])
    for a, b in ((omega, nu), (nu, omega)):
        assert report.cross_sup == pair_correlation(a, b, "symmetric", 2000.0, 10).sup_norm()
    assert report.cross_sup > 0


def brute_force_count(labels, i, j, s):
    # #{(x, y) in labels[i] x labels[j] : y - x = s}, pair by pair
    return sum(1 for x in labels[i] for y in labels[j] if y - x == s)


@given(
    st.integers(1, 60),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.data(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_bernoulli_verify_equals_the_comb_correlations(N, p, data, seed):
    r_max = data.draw(st.integers(1, 3 * N), label="r_max")
    rng = RngSpec(seed)
    report = bernoulli_verify(p, N, rng, r_max=r_max)
    sites = bernoulli_gas(p, N, rng)
    # the labelled tally against a count of every pair, label 0 the occupied
    # sites P and label 1 the rest of M = -N..N
    row = np.zeros(2 * N + 1, dtype=bool)
    row[sites + N] = True
    codes, i, j, count = eberlein._lattice_tally(bit_row(row), len(row), r_max)
    lags = combs._decode(codes)[:, 0].tolist()
    reach = min(r_max, 2 * N)
    assert sorted(lags) == sorted(list(range(-reach, reach + 1)) * 4)
    labels = (sites.tolist(), sorted(set(range(-N, N + 1)) - set(sites.tolist())))
    assert count.tolist() == [
        brute_force_count(labels, a, b, s) for a, b, s in zip(i.tolist(), j.tolist(), lags)
    ]
    # the atoms against the kernel on combs built over the lattice
    lam = dirac_comb(np.stack([sites, np.zeros_like(sites)], axis=1), (-float(N), float(N)))
    omega = lattice_comb(-N, N, weight=p)
    nu = split_remainder(np.stack([sites, np.zeros_like(sites)], axis=1), omega)
    def atoms(mu, other):
        corr = pair_correlation(mu, other, "symmetric", float(N), r_max)
        return {int(m): float(w.real) for (m, _), w in corr.atoms_dict().items()}
    # bit-equal floats, in the same order: repr tells -0.0 from 0.0
    assert repr(report.gamma) == repr(atoms(lam, lam))
    assert repr(report.nu_corr) == repr(atoms(nu, nu))
    for a, b in ((omega, nu), (nu, omega)):
        cross = pair_correlation(a, b, "symmetric", float(N), r_max).sup_norm()
        assert repr(report.cross_sup) == repr(cross)


@pytest.mark.parametrize("N,r_max,message", [
    (0, 5, "N must be a whole number >= 1, got 0"),
    (-3, 5, "N must be a whole number >= 1, got -3"),
    (2.5, 5, "N must be a whole number >= 1, got 2.5"),
    (float("inf"), 5, "N must be a whole number >= 1, got inf"),
    (10, 0, "r_max must be a whole number >= 1, got 0"),
    (10, 2.9, "r_max must be a whole number >= 1, got 2.9"),
    (10, float("nan"), "r_max must be a whole number >= 1, got nan"),
    (True, 5, "N must be a whole number >= 1, got True"),
    (10, True, "r_max must be a whole number >= 1, got True"),
])
def test_bernoulli_verify_rejects_empty_ranges(N, r_max, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bernoulli_verify(0.5, N, RngSpec(1), r_max=r_max)


def test_bernoulli_gas_matches_the_masked_lattice():
    for p, N in ((0.37, 5000), (0.0, 3), (1.0, 3), (0.5, 0)):
        sites = bernoulli_gas(p, N, RngSpec(8, 1))
        u = inflate._philox_generator(8, 1, 0).random(2 * N + 1)
        want = np.arange(-N, N + 1, dtype=np.int64)[u < p]
        assert sites.dtype == want.dtype and np.array_equal(sites, want)


def test_bernoulli_gas_checks_points_budget(monkeypatch):
    monkeypatch.setattr(cps, "MAX_POINTS", 101)
    assert len(bernoulli_gas(1.0, 50, RngSpec(1))) == 101

    def no_draws(*args):
        raise AssertionError("drew sites over the points budget")

    monkeypatch.setattr(stochastic, "_philox_generator", no_draws)
    with pytest.raises(ValueError, match="budget of MAX_POINTS = 101 points"):
        bernoulli_gas(0.5, 51, RngSpec(1))


def test_random_fibonacci_reproducible_and_extends():
    a = random_fibonacci(0.5, 2000.0, RngSpec(7))
    b = random_fibonacci(0.5, 2000.0, RngSpec(7))
    for t in ("a", "b"):
        assert np.array_equal(a.points[t], b.points[t])
    # a longer run keeps the level structure: counts stay branch-independent
    big = random_fibonacci(0.5, 4000.0, RngSpec(7))
    assert big.count() > a.count()


def test_random_fibonacci_degenerate_limits():
    det = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 3000.0)
    p1 = random_fibonacci(1.0, 3000.0, RngSpec(11))
    for t in ("a", "b"):
        assert np.array_equal(det.points[t], p1.points[t])
    p0 = random_fibonacci(0.0, 500.0, RngSpec(11))
    # mirrored rule: same letter counts, different geometry
    assert p0.count("a") > 0 and p0.count("b") > 0
    assert not np.array_equal(
        p0.points["a"][: det.count("a")], det.points["a"][: p0.count("a")]
    )


def test_random_word_counts_satisfy_matrix_recursion():
    rule = random_fibonacci_rule(0.5)
    mat = substitution_matrix(rule)
    idx = {letter: i for i, letter in enumerate(rule.alphabet)}
    br_words = [
        [np.array([idx[s] for s in br.word], dtype=np.int16) for br in rule.images[l]]
        for l in rule.alphabet
    ]
    br_cumprob = [np.cumsum([br.prob for br in rule.images[l]]) for l in rule.alphabet]
    word = np.array([0], dtype=np.int16)
    counts = np.array([1, 0])
    for level in range(12):
        word = _inflate_word(word, br_words, br_cumprob, 31, 0, level)
        counts = mat @ counts
        got = np.bincount(word, minlength=2)
        assert np.array_equal(got, counts)


def test_random_fibonacci_density():
    tps = random_fibonacci(0.5, 10_000.0, RngSpec(7))
    dens = tps.count() / 10_000.0
    assert abs(dens - TAU / SQRT5) / (TAU / SQRT5) < 0.01


def test_empirical_pp_split_zero_frequency_is_density():
    tps = random_fibonacci(0.5, 4000.0, RngSpec(3))
    from combsplit.zroot5 import FourierModulePoint

    spec = AveragingSpec("one_sided", (2000.0, 4000.0))
    report = empirical_pp_split(tps, [FourierModulePoint(0, 0)], spec)
    total = sum(
        abs(report.amplitudes[t][FourierModulePoint(0, 0)]) for t in ("a", "b")
    )
    assert total == pytest.approx(tps.count() / 4000.0, abs=1e-12)
    assert report.residual_mass <= report.total_mass


def test_empirical_pp_split_matches_model_set_at_p1():
    R = 10_000.0
    tps = random_fibonacci(1.0, R, RngSpec(1))
    ks = [k for k in cps.fourier_module(8.0, 2.0) if k.value() > 1e-12][:5]
    spec = AveragingSpec("one_sided", (R,))
    report = empirical_pp_split(tps, ks, spec)
    windows = cps.fibonacci_windows()
    for t in ("a", "b"):
        for k in ks:
            want = cps.window_amplitude(windows[t], k)
            assert abs(report.amplitudes[t][k] - want) <= 0.01


def test_empirical_pp_split_cauchy_stabilizes():
    tps = random_fibonacci(0.5, 10_000.0, RngSpec(7))
    from combsplit.suites import preset_module_points

    spec = AveragingSpec("one_sided", (5000.0, 10_000.0))
    report = empirical_pp_split(tps, preset_module_points(5), spec)
    assert report.max_cauchy <= 0.02


@pytest.mark.parametrize("block", [64, 192, eberlein.SITE_BLOCK])
def test_bernoulli_gas_blocks_equal_one_draw(monkeypatch, block):
    # a bit row of one row is drawn and read back SITE_BLOCK sites at a time
    monkeypatch.setattr(eberlein, "SITE_BLOCK", block)
    # 2N + 1 one short of, on, and one past a whole number of blocks
    sizes = [k * block + d for k in (1, 2, 3) for d in (-1, 0, 1) if (k * block + d) % 2]
    for n in sizes:
        N = n // 2
        u = inflate._philox_generator(4, 2, 0).random(n)
        row = stochastic._occupancy(0.45, N, RngSpec(4, 2))
        # the bits of one draw, 64 sites to a word, the bits past the row 0
        assert row.dtype == np.dtype("<u8") and np.array_equal(row, bit_row(u < 0.45))
        sites = bernoulli_gas(0.45, N, RngSpec(4, 2))
        assert sites.dtype == np.int64
        assert np.array_equal(sites, np.arange(-N, N + 1)[u < 0.45])
        # a report's sites come from its own draw, in the same blocks
        blocks = list(bernoulli_verify(0.45, N, RngSpec(4, 2), r_max=1).sites())
        assert np.array_equal(np.concatenate(blocks), sites)


def test_bernoulli_verify_holds_under_a_byte_per_site():
    # the suite's gas of 2e6 + 1 sites; a bool row over the sites, and its
    # eight shifted copies for the popcounts, took 2.5 B per site
    bernoulli_verify(0.6, 100, RngSpec(42))
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        bernoulli_verify(0.6, 10**6, RngSpec(42), r_max=50)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10**6 + 1, peak
