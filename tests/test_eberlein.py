import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import cps, eberlein, inflate
from combsplit.combs import (
    WeightedComb,
    dirac_comb,
    lattice_comb,
    linear_combine,
    reflect_conjugate,
    split_pp,
)
from combsplit.eberlein import (
    AveragingSpec,
    RangeError,
    boundary_fraction,
    decomposition_report,
    eberlein_convolve,
    fb_coefficient,
    fb_scan,
    orthogonality_report,
    pair_correlation,
    smoothed_fb_check,
)
from combsplit.zroot5 import TAU, FourierModulePoint, sign_of


def brute_convolve(mu, nu, shape, R, r_max):
    """Quadratic-time dictionary oracle for the both-restricted kernel."""
    lo, hi = (0.0, R) if shape == "one_sided" else (-R, R)
    vol = R if shape == "one_sided" else 2 * R
    out = {}
    for (mx, nx), wx, px in zip(mu.keys, mu.weights, mu.positions):
        if not (-hi <= px <= -lo):
            continue
        for (my, ny), wy, py in zip(nu.keys, nu.weights, nu.positions):
            if not (lo <= py <= hi):
                continue
            if abs(px + py) <= r_max + 1e-9:
                key = (int(mx + my), int(nx + ny))
                out[key] = out.get(key, 0) + wx * wy
    return {k: v / vol for k, v in out.items() if v != 0}


def test_lattice_convolution_counting_formula_exact():
    z = lattice_comb(-100, 100)
    g = eberlein_convolve(z, z, "symmetric", 100.0, 20, "both")
    for m in range(-20, 21):
        assert complex(g.atom((m, 0))) == (201 - abs(m)) / 200
    assert complex(g.atom((5, 0))) == 0.98


def test_lattice_convolution_approaches_unit_atoms():
    # finite atoms (2R+1-|m|)/2R climb to the limiting value 1 at every lag
    errs = []
    for R in (100, 10_000):
        z = lattice_comb(-R, R)
        g = eberlein_convolve(z, z, "symmetric", float(R), 20, "both")
        errs.append(max(abs(complex(g.atom((m, 0))) - 1.0) for m in range(-20, 21)))
    assert errs[1] < errs[0]
    assert errs[1] <= 1.5e-3


def test_empty_input_gives_empty_output():
    empty = dirac_comb(np.empty((0, 2), dtype=np.int64), (-100.0, 100.0))
    z = lattice_comb(-100, 100)
    assert len(eberlein_convolve(empty, z, "symmetric", 50.0, 10)) == 0


def test_sweep_kernel_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    keys = np.unique(
        rng.integers(-8, 9, size=(30, 2)).astype(np.int64), axis=0
    )
    weights = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    pos = keys[:, 0] + keys[:, 1] * TAU
    order = np.argsort(pos)
    mu = WeightedComb(keys[order], weights[order].astype(np.complex128),
                      (-40.0, 40.0))
    nu = reflect_conjugate(mu)
    got = eberlein_convolve(mu, nu, "symmetric", 20.0, 6).atoms_dict()
    want = brute_convolve(mu, nu, "symmetric", 20.0, 6)
    assert set(got) == set(want)
    for k in got:
        assert got[k] == pytest.approx(want[k], abs=1e-12)


def test_dense_and_sweep_kernels_agree_on_integers(monkeypatch):
    # a lattice comb plus one off-lattice atom forces the golden-ratio pair
    # counts instead of the integer ones; both count the same integers, also
    # when tiny blocks make every cell's count a sum over blocks and folds
    z = lattice_comb(-50, 50)
    marked = linear_combine(
        [(1.0, z), (1.0, dirac_comb([(0, 1)], (-50.0, 50.0), weight=0.0 + 0j))]
    )
    dense = eberlein_convolve(z, z, "symmetric", 40.0, 10).atoms_dict()
    # same atoms, golden-ratio path (complex dtype + off-lattice key)
    z_complex = WeightedComb(z.keys, z.weights.astype(np.complex128), z.coverage)
    marked_z = WeightedComb(
        np.vstack([z.keys, [[0, 1]]])[np.argsort(np.r_[z.positions, [TAU]], kind="stable")],
        np.r_[z.weights, [0.0]][np.argsort(np.r_[z.positions, [TAU]], kind="stable")],
        z.coverage,
    )
    for blocks in (None, (5, 12)):
        if blocks:
            monkeypatch.setattr(eberlein, "PAIR_BLOCK", blocks[0])
            monkeypatch.setattr(eberlein, "FOLD_CELLS", blocks[1])
        forced = eberlein_convolve(marked_z, z_complex, "symmetric", 40.0, 10).atoms_dict()
        forced = {k: v for k, v in forced.items() if v != 0}
        assert set(dense) == set(forced)
        for k in dense:
            assert complex(dense[k]) == complex(forced[k])


def test_pair_correlation_hermitian_symmetry():
    tps = inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", 300.0)
    combs_by_type = {t: tps.comb(t) for t in ("a", "b")}
    g_ab = pair_correlation(combs_by_type["a"], combs_by_type["b"],
                            "one_sided", 250.0, 15)
    g_ba = pair_correlation(combs_by_type["b"], combs_by_type["a"],
                            "one_sided", 250.0, 15)
    reflected = {(-m, -n): np.conj(w) for (m, n), w in g_ba.atoms_dict().items()}
    assert g_ab.atoms_dict() == reflected


def test_pair_correlation_atom_at_zero_is_density():
    tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 2000.0)
    comb = tps.comb()
    g = pair_correlation(comb, comb, "one_sided", 2000.0, 5)
    count = np.count_nonzero(comb.positions <= 2000.0)
    assert complex(g.atom((0, 0))).real == pytest.approx(count / 2000.0)
    assert complex(g.atom((0, 0))).real > 0


def test_fibonacci_correlation_has_atom_at_tau():
    tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 500.0)
    comb = tps.comb()
    g = pair_correlation(comb, comb, "one_sided", 400.0, 5)
    assert abs(complex(g.atom((0, 1)))) > 0.1  # adjacent long-short pair


def test_thue_morse_gamma_aa_at_zero():
    n = 2**16
    tps = inflate.realize_geometric(inflate.thue_morse_rule(), "a", float(n))
    g = pair_correlation(tps.comb("a"), tps.comb("a"), "one_sided", float(n), 4)
    assert complex(g.atom((0, 0))).real == pytest.approx(0.5, abs=1e-3)


def test_fb_coefficient_examples():
    z = lattice_comb(-100, 100)
    assert fb_coefficient(z, 0.0, "symmetric", 100.0) == pytest.approx(
        201 / 200, abs=1e-14
    )
    single = dirac_comb([(0, 0)], (-100.0, 100.0))
    for k in (0.0, 0.3, 1.7):
        assert fb_coefficient(single, k, "symmetric", 50.0) == pytest.approx(
            1 / 100, abs=1e-15
        )


def test_fb_coefficient_is_linear():
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(-30, 31, size=(20, 2)).astype(np.int64), axis=0)
    pos = keys[:, 0] + keys[:, 1] * TAU
    order = np.argsort(pos)
    keys = keys[order]
    w1 = (rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys)))
    w2 = (rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys)))
    cov = (-80.0, 80.0)
    mu = WeightedComb(keys, w1.astype(np.complex128), cov)
    nu = WeightedComb(keys, w2.astype(np.complex128), cov)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    combo = linear_combine([(a, mu), (b, nu)])
    for k in (FourierModulePoint(1, 0), FourierModulePoint(-1, 1), 0.37):
        lhs = fb_coefficient(combo, k, "symmetric", 60.0)
        rhs = a * fb_coefficient(mu, k, "symmetric", 60.0) + b * fb_coefficient(
            nu, k, "symmetric", 60.0
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fb_scan_rows_and_cauchy():
    z = lattice_comb(-1000, 1000)
    spec = AveragingSpec("symmetric", (100.0, 1000.0))
    rows = fb_scan(z, [0.0, 0.3], spec)
    assert len(rows) == 4
    assert rows[0].cauchy is None and rows[1].cauchy is not None
    at_0 = {r.R: r.value for r in rows if r.k == 0.0}
    assert at_0[100.0] == pytest.approx(201 / 200)
    assert at_0[1000.0] == pytest.approx(2001 / 2000)


def test_orthogonality_report_zero_remainder():
    z = lattice_comb(-200, 200)
    empty = dirac_comb(np.empty((0, 2), dtype=np.int64), (-200.0, 200.0))
    rows = orthogonality_report(z, empty, AveragingSpec("symmetric", (50.0, 150.0)), 10)
    assert all(r.sup_omega_nu == 0.0 and r.sup_nu_omega == 0.0 for r in rows)


def _twisted_splitting(R):
    tps = inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", R)
    rng = (0.0, R)
    splits = {}
    for t in ("a", "b"):
        window = cps.twisted_fibonacci_windows()[t]
        alpha = (len(tps.points[t]) / R) / cps.model_set_density(window)
        splits[t] = split_pp(tps.points[t], window, alpha, rng)
    return tps, splits


def test_decomposition_bilinear_identity():
    R = 1000.0
    tps, splits = _twisted_splitting(R)
    report = decomposition_report(
        tps.comb("a"),
        tps.comb("b"),
        splits["a"],
        splits["b"],
        "one_sided",
        R,
        20.0,
        module_k=[FourierModulePoint(1, 0), FourierModulePoint(0, 1)],
    )
    assert report.bilinear_residual <= 1e-12
    assert report.cross_sup < 0.05
    assert report.zero_fb_max < 0.05


def test_variant_consistency_on_lattice():
    for R in (100.0, 1000.0):
        z = lattice_comb(-int(R) - 25, int(R) + 25)
        both = eberlein_convolve(z, z, "symmetric", R, 20, "both")
        one = eberlein_convolve(z, z, "symmetric", R, 20, "one")
        diffs = {
            m: abs(complex(one.atom((m, 0))) - complex(both.atom((m, 0))))
            for m in range(-20, 21)
        }
        # exact: the one-restricted value is constant (2R+1)/2R
        for m, d in diffs.items():
            assert d == pytest.approx(abs(m) / (2 * R), abs=1e-12)
        assert max(diffs.values()) <= boundary_fraction("symmetric", R, 20)
    # shrink along R
    assert 20 / (2 * 1000) < 20 / (2 * 100)


def test_variant_consistency_on_golden_chain():
    sup_diffs = []
    for R in (200.0, 2000.0):
        tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", R + 30.0)
        comb = tps.comb()
        both = pair_correlation(comb, comb, "one_sided", R, 20, "both")
        one = pair_correlation(comb, comb, "one_sided", R, 20, "one")
        keys = set(both.atoms_dict()) | set(one.atoms_dict())
        sup = max(
            abs(complex(one.atom(k)) - complex(both.atom(k))) for k in keys
        )
        bound = boundary_fraction("one_sided", R, 20) * max(
            1.0, both.sup_norm()
        ) * 20
        assert sup <= bound
        sup_diffs.append(sup)
    assert sup_diffs[1] < sup_diffs[0]


def test_smoothed_fb_identity():
    z = lattice_comb(-1200, 1200)
    # k = 0, width 1: triangles tile, coefficient is exactly the density
    res_small = smoothed_fb_check(z, 1.0, 0.0, "symmetric", 100.0)
    assert res_small < 6e-3
    # residual shrinks with R at a generic wave number
    r1 = smoothed_fb_check(z, 1.0, 0.3, "symmetric", 100.0)
    r2 = smoothed_fb_check(z, 1.0, 0.3, "symmetric", 1000.0)
    assert r2 < r1
    # the kernel transform vanishes at k = 1/width, so the residual there
    # is the smoothed coefficient itself
    r_zero = smoothed_fb_check(z, 1.0, 1.0, "symmetric", 500.0)
    assert r_zero < 5e-3


def test_model_set_comb_dark_at_non_module_k():
    R = 10_000.0
    model = cps.cut_and_project(cps.fibonacci_windows()["a"], (0.0, R))
    comb = dirac_comb(model, (0.0, R))
    c = fb_coefficient(comb, math.sqrt(2) / 3, "one_sided", R)
    assert abs(c) <= 0.05


def test_boundary_fraction_values():
    assert boundary_fraction("symmetric", 1000.0, 10.0) == pytest.approx(0.02)
    assert boundary_fraction("symmetric", 100.0, 0.0) == 0.0
    fracs = [boundary_fraction("symmetric", R, 10.0) for R in (50, 100, 1000)]
    assert fracs == sorted(fracs, reverse=True)
    assert boundary_fraction("one_sided", 100.0, 10.0) == pytest.approx(0.4)


def test_insufficient_coverage_raises():
    z = lattice_comb(-50, 50)
    with pytest.raises(RangeError):
        eberlein_convolve(z, z, "symmetric", 80.0, 10, "both")
    with pytest.raises(RangeError):
        eberlein_convolve(z, z, "symmetric", 45.0, 10, "one")
    with pytest.raises(RangeError):
        fb_coefficient(z, 0.0, "symmetric", 60.0)


def test_averaging_spec_validation():
    with pytest.raises(ValueError):
        AveragingSpec("round", (1.0, 2.0))
    with pytest.raises(ValueError):
        AveragingSpec("symmetric", (10.0, 5.0))
    for R_list in ((math.nan,), (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            AveragingSpec("one_sided", R_list)
    spec = AveragingSpec("one_sided", (1.0, 2.0))
    assert spec.interval(2.0) == (0.0, 2.0)
    assert spec.vol(2.0) == 2.0


def test_sweep_rejects_keys_beyond_encoder_range():
    # both atoms sit near the origin, but their difference key has m = 2**31
    far = dirac_comb([(-(2**31), round(2**31 / TAU))], (-math.inf, math.inf))
    near = dirac_comb([(0, 1)], (-math.inf, math.inf))
    assert abs(far.positions[0]) < 1.0
    with pytest.raises(ValueError, match="2\\*\\*31"):
        pair_correlation(far, near, "symmetric", 10.0, 5.0)


def exact_pair_correlation(mu, nu, shape, R, r_max, variant):
    """O(N^2) oracle over exact key differences; bounds are integers, so
    every comparison is an exact sign in Z[tau]."""
    lo, hi = (0, R) if shape == "one_sided" else (-R, R)
    nu_lo, nu_hi = (lo, hi) if variant == "both" else (lo - r_max, hi + r_max)

    def inside(key, a, b):
        m, n = key
        return sign_of(m - a, n) >= 0 and sign_of(m - b, n) <= 0

    sums = {}
    for x, wx in mu.items():
        if not inside(x, lo, hi):
            continue
        for y, wy in nu.items():
            d = (y[0] - x[0], y[1] - x[1])
            if inside(y, nu_lo, nu_hi) and inside(d, -r_max, r_max):
                sums[d] = sums.get(d, 0) + wx.conjugate() * wy
    vol = R if shape == "one_sided" else 2 * R
    return {d: complex(w) / vol for d, w in sums.items() if w != 0}


def exact_comb(atoms):
    keys = np.array(list(atoms), dtype=np.int64).reshape(-1, 2)
    weights = np.array(list(atoms.values()))
    order = np.argsort(keys[:, 0] + keys[:, 1] * TAU, kind="stable")
    return WeightedComb(keys[order], weights[order], (-math.inf, math.inf))


# dyadic weights keep every product and every per-atom sum exact
dyadic_st = st.integers(-8, 8).filter(bool).map(lambda k: k / 4)
real_w_st = st.one_of(st.just(1.0), dyadic_st)
complex_w_st = st.builds(complex, dyadic_st, dyadic_st)


@st.composite
def atoms_st(draw, integer, weight_st):
    n_st = st.just(0) if integer else st.integers(-6, 6)
    keys = st.tuples(st.integers(-15, 15), n_st)
    return draw(st.dictionaries(keys, weight_st, max_size=14))


@given(
    st.data(),
    st.booleans(),
    st.sampled_from([real_w_st, complex_w_st]),
    st.sampled_from(["one_sided", "symmetric"]),
    st.sampled_from(["both", "one"]),
    st.sampled_from([3, 5, 8, 13]),
    st.sampled_from([1, 2, 4, 7]),
)
@settings(max_examples=200, deadline=None)
def test_pair_correlation_matches_exact_oracle(
    data, integer, weight_st, shape, variant, R, r_max
):
    # integer supports are counted by lag, mixed ones by exact key
    mu_atoms = data.draw(atoms_st(integer, weight_st))
    nu_atoms = data.draw(atoms_st(integer, real_w_st))
    corr = pair_correlation(
        exact_comb(mu_atoms), exact_comb(nu_atoms), shape, float(R), r_max, variant
    )
    want = exact_pair_correlation(mu_atoms, nu_atoms, shape, R, r_max, variant)
    assert {k: complex(w) for k, w in corr.atoms_dict().items()} == want
    assert corr.coverage == (-r_max, r_max)
    assert np.all(np.diff(corr.positions) > 0)


def fsum_pair_correlation(mu, nu, shape, R, r_max, variant):
    """Oracle: math.fsum of the per-pair products at each difference, over vol.

    Admission is decided exactly, as in exact_pair_correlation.  Products
    are taken with numpy's array multiply, as in the kernel: for complex
    weights it may fuse multiply-adds, unlike Python's complex product.
    """
    lo, hi = (0, R) if shape == "one_sided" else (-R, R)
    nu_lo, nu_hi = (lo, hi) if variant == "both" else (lo - r_max, hi + r_max)
    dtype = np.result_type(mu.weights, nu.weights, np.float64)

    def inside(key, a, b):
        m, n = key
        return sign_of(m - a, n) >= 0 and sign_of(m - b, n) <= 0

    pairs = {}
    for x, wx in zip(map(tuple, mu.keys.tolist()), np.conj(mu.weights)):
        if not inside(x, lo, hi):
            continue
        for y, wy in zip(map(tuple, nu.keys.tolist()), nu.weights):
            d = (y[0] - x[0], y[1] - x[1])
            if inside(y, nu_lo, nu_hi) and inside(d, -r_max, r_max):
                xs, ys = pairs.setdefault(d, ([], []))
                xs.append(wx)
                ys.append(wy)
    vol = float(R if shape == "one_sided" else 2 * R)
    out = {}
    for d, (xs, ys) in pairs.items():
        products = np.array(xs, dtype=mu.weights.dtype).astype(dtype) * np.array(
            ys, dtype=nu.weights.dtype
        )
        re = math.fsum(products.real.tolist())
        im = math.fsum(products.imag.tolist())
        if re != 0 or im != 0:
            out[d] = complex(re / vol, im / vol)
    return out


# non-dyadic weights: products and per-atom sums round
inexact_real_st = st.sampled_from([0.6, -0.4, 1 / 3, 0.1, -2.7, 1.0])
inexact_complex_st = st.builds(complex, inexact_real_st, inexact_real_st)


@given(
    st.data(),
    st.booleans(),
    st.sampled_from([inexact_real_st, inexact_complex_st]),
    st.sampled_from([inexact_real_st, inexact_complex_st]),
    st.sampled_from(["one_sided", "symmetric"]),
    st.sampled_from(["both", "one"]),
    st.sampled_from([3, 5, 13]),
    st.sampled_from([1, 2, 7]),
)
@settings(max_examples=200, deadline=None)
def test_every_atom_is_the_correctly_rounded_pair_sum(
    data, integer, mu_w_st, nu_w_st, shape, variant, R, r_max
):
    mu = exact_comb(data.draw(atoms_st(integer, mu_w_st)))
    nu = exact_comb(data.draw(atoms_st(integer, nu_w_st)))
    corr = pair_correlation(mu, nu, shape, float(R), r_max, variant)
    want = fsum_pair_correlation(mu, nu, shape, R, r_max, variant)
    assert {k: complex(w) for k, w in corr.atoms_dict().items()} == want


@pytest.mark.parametrize("blocks", [None, (7, 50)])
@pytest.mark.parametrize("integer", [True, False])
def test_many_distinct_weights_are_correctly_rounded(integer, blocks, monkeypatch):
    # random weights make nearly every pair its own level pair, so integer
    # supports take the pair sweep too; tiny blocks split one x-atom's pairs
    # and fold the cell table many times
    if blocks:
        monkeypatch.setattr(eberlein, "PAIR_BLOCK", blocks[0])
        monkeypatch.setattr(eberlein, "FOLD_CELLS", blocks[1])
    rng = np.random.default_rng(8)
    if integer:
        keys = [(m, 0) for m in range(-70, 71)]
    else:
        tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 70.0)
        keys = [(m, n) for m, n in tps.points["a"].tolist()]
        keys += [(-m, -n) for m, n in keys if (m, n) != (0, 0)]
    weights = rng.normal(size=len(keys))
    mu = exact_comb(dict(zip(keys, weights + 1j * rng.normal(size=len(keys)))))
    nu = exact_comb(dict(zip(keys, rng.permutation(weights))))
    for shape in ("one_sided", "symmetric"):
        corr = pair_correlation(mu, nu, shape, 60.0, 7)
        want = fsum_pair_correlation(mu, nu, shape, 60, 7, "both")
        assert {k: complex(w) for k, w in corr.atoms_dict().items()} == want


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_weights_and_products_raise():
    z = lattice_comb(-20, 20)
    for w in (math.nan, math.inf, 1e200):  # 1e200 squared overflows
        bad = WeightedComb(z.keys, np.r_[z.weights[:-1], w], z.coverage)
        with pytest.raises(ValueError, match="finite"):
            pair_correlation(bad, bad, "symmetric", 20.0, 3)
    # each product 1.69e308 is finite, their sum at lag 0 is not
    big = WeightedComb(z.keys, np.full(len(z), 1.3e154), z.coverage)
    with pytest.raises(ValueError, match="finite"):
        pair_correlation(big, big, "symmetric", 20.0, 3)


def test_pair_sweep_memory_is_bounded_by_its_blocks(monkeypatch):
    # distinct weights on Z take the pair sweep: with small blocks its peak
    # memory stays below one int64 per pair, and the atoms do not change
    rng = np.random.default_rng(4)
    n, r_max = 2000, 20
    keys = np.stack([np.arange(n), np.zeros(n, dtype=np.int64)], axis=1)
    mu = WeightedComb(keys, rng.normal(size=n), (0.0, float(n)))
    nu = WeightedComb(keys, rng.normal(size=n), (0.0, float(n)))
    whole = pair_correlation(mu, nu, "one_sided", n - 1.0, r_max)
    monkeypatch.setattr(eberlein, "PAIR_BLOCK", 128)
    monkeypatch.setattr(eberlein, "FOLD_CELLS", 256)
    tracemalloc.start()
    try:
        blocked = pair_correlation(mu, nu, "one_sided", n - 1.0, r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(blocked.keys, whole.keys)
    assert np.array_equal(blocked.weights, whole.weights)
    assert peak < 8 * n * (2 * r_max + 1), peak
