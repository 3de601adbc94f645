import cmath
import math
import tracemalloc
from fractions import Fraction

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
    decomposition_report,
    eberlein_convolve,
    fb_coefficient,
    fb_scan,
    orthogonality_report,
    pair_correlation,
)
from combsplit.zroot5 import TAU, FourierModulePoint, QuadraticInt, frac_phase, sign_of


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


def boundary_fraction(shape, R, r_max):
    """Relative volume of the r_max-boundary of the averaging interval.

    Closed form for intervals: the outer collar always has length
    2 * r_max, the inner one saturates at the interval length.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    L = AveragingSpec(shape, (R,)).vol(R)
    return (2.0 * r_max + min(2.0 * r_max, L)) / L


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


def _golden_comb(seed=5):
    """Complex weights on golden keys at positions in [5, 60], covering [-100, 100]."""
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(-40, 41, size=(400, 2)).astype(np.int64), axis=0)
    pos = keys[:, 0] + keys[:, 1] * TAU
    keys = keys[(pos >= 5.0) & (pos <= 60.0)]
    keys = keys[np.argsort(keys[:, 0] + keys[:, 1] * TAU)]
    w = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    return WeightedComb(keys, w, (-100.0, 100.0))


@pytest.mark.parametrize("shape", ["one_sided", "symmetric"])
def test_fb_scan_rows_equal_per_R_coefficients(shape):
    comb = _golden_comb()
    # R = 1 and 3 restrict to no atom; R = 59.99 cuts inside the support, and
    # an atom 5e-13 above R_edge counts, as in _restrict_arrays
    edge = float(comb.positions[np.searchsorted(comb.positions, 30.0)])
    spec = AveragingSpec(shape, (1.0, 3.0, 20.0, edge - 5e-13, 59.99, 100.0))
    K = [FourierModulePoint(0, 0), FourierModulePoint(1, 0), FourierModulePoint(-3, 2),
         0.0, 0.37]
    rows = fb_scan(comb, K, spec)
    assert [(r.k, r.R) for r in rows] == [(k, R) for k in K for R in spec.R_list]
    for row in rows:
        assert row.value == fb_coefficient(comb, row.k, shape, row.R)
        # independent oracle: scalar phases, one atom at a time
        lo, hi = spec.interval(row.R)
        total = 0j
        for (m, n), w, x in zip(comb.keys.tolist(), comb.weights, comb.positions):
            if lo - 1e-12 <= x <= hi + 1e-12:
                if isinstance(row.k, FourierModulePoint):
                    phase = frac_phase(row.k, QuadraticInt(m, n))
                else:
                    phase = row.k * x
                total += w * cmath.exp(-2j * math.pi * phase)
        assert row.value == pytest.approx(total / spec.vol(row.R), abs=1e-14)
    assert all(r.value == 0 for r in rows if r.R < 5.0)
    at_zero = fb_coefficient(comb, FourierModulePoint(0, 0), shape, 100.0)
    assert at_zero == pytest.approx(comb.weights.sum() / spec.vol(100.0), abs=1e-14)


def test_fb_scan_reports_the_first_uncovered_R():
    comb = _golden_comb()
    spec = AveragingSpec("symmetric", (50.0, 120.0, 150.0))
    with pytest.raises(RangeError) as scan:
        fb_scan(comb, [FourierModulePoint(1, 0)], spec)
    with pytest.raises(RangeError) as single:
        fb_coefficient(comb, FourierModulePoint(1, 0), "symmetric", 120.0)
    assert str(scan.value) == str(single.value) == (
        "comb covers (-100.0, 100.0), needs [-120.0, 120.0]")
    assert fb_scan(comb, [], spec) == []


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


def test_orthogonality_report_makes_one_kernel_call_per_R(monkeypatch):
    R = 1000.0
    _, splits = _twisted_splitting(R)
    omega, nu = splits["a"]
    spec = AveragingSpec("one_sided", (10.0, 100.0, R))
    calls = []
    convolve = eberlein.eberlein_convolve

    def counting(*args):
        calls.append(args[3])
        return convolve(*args)

    monkeypatch.setattr(eberlein, "eberlein_convolve", counting)
    rows = orthogonality_report(omega, nu, spec, 20.0)
    monkeypatch.undo()
    assert calls == list(spec.R_list)
    # both fields equal the sup norms of the two tables computed directly
    for row in rows:
        assert row.sup_omega_nu == pair_correlation(omega, nu, "one_sided", row.R).sup_norm()
        assert row.sup_nu_omega == pair_correlation(nu, omega, "one_sided", row.R).sup_norm()
        assert row.sup_omega_nu > 0


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


def test_decomposition_zero_fb_uses_exact_phases():
    # the diagonal case: zero_fb_max is the largest |sum of w * e(-k s)| over
    # the zero part's atoms, by scalar 40-digit phases, over 2 * r_max
    R, r_max = 1000.0, 12.0
    tps, splits = _twisted_splitting(R)
    ks = [FourierModulePoint(1, 0), FourierModulePoint(-1, 2), 0.3]
    report = decomposition_report(
        tps.comb("a"), tps.comb("a"), splits["a"], splits["a"], "one_sided", R, r_max, ks
    )
    assert report.bilinear_residual <= 1e-15
    assert report.cross_sup == max(report.cross_ij.sup_norm(), report.cross_ji.sup_norm())
    zero = report.zero_part
    want = 0.0
    for k in ks:
        total = 0j
        for (m, n), w, x in zip(zero.keys.tolist(), zero.weights, zero.positions):
            if isinstance(k, FourierModulePoint):
                phase = frac_phase(k, QuadraticInt(m, n))
            else:
                phase = k * x
            total += w * cmath.exp(-2j * math.pi * phase)
        want = max(want, abs(total) / (2 * r_max))
    assert report.zero_fb_max == pytest.approx(want, rel=1e-12)
    assert decomposition_report(
        tps.comb("a"), tps.comb("a"), splits["a"], splits["a"], "one_sided", R, r_max
    ).zero_fb_max == 0.0


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


@pytest.mark.parametrize("r_max", [math.nan, math.inf, -3.0])
def test_bad_r_max_raises(r_max):
    z = lattice_comb(-50, 50)
    with pytest.raises(ValueError, match="r_max must be finite and nonnegative"):
        eberlein_convolve(z, z, "symmetric", 40.0, r_max)
    with pytest.raises(ValueError, match="r_max must be finite and nonnegative"):
        pair_correlation(z, z, "one_sided", 40.0, r_max, "one")


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_wave_number_raises(k):
    z = lattice_comb(-50, 50)
    with pytest.raises(ValueError, match="wave number must be finite"):
        fb_coefficient(z, k, "symmetric", 40.0)
    with pytest.raises(ValueError, match="wave number must be finite"):
        fb_scan(z, [0.5, k], AveragingSpec("one_sided", (10.0, 40.0)))


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


# finite random weights, far from overflow; many 1.0 draws leave few weight
# levels, so integer supports take the bit rows as well as the pair sweep
random_real_st = st.one_of(st.just(1.0), st.floats(-1e3, 1e3, allow_subnormal=False).filter(bool))
random_complex_st = st.builds(complex, random_real_st, random_real_st)


@given(
    st.data(),
    st.booleans(),
    st.sampled_from([(random_real_st, random_real_st), (random_real_st, random_complex_st),
                     (random_complex_st, random_real_st),
                     (random_complex_st, random_complex_st)]),
    st.sampled_from(["one_sided", "symmetric"]),
    st.sampled_from([3, 5, 13]),
    st.sampled_from([1, 2, 7]),
)
@settings(max_examples=200, deadline=None)
def test_cross_correlations_mirror_bit_for_bit(data, integer, weight_sts, shape, R, r_max):
    # With both factors restricted to the same interval, c_nu_omega(s) =
    # conj(c_omega_nu(-s)): each atom is the correctly rounded sum of the same
    # products.  That holds when both factors are complex too, because the
    # kernel forms each complex product from separately rounded real products
    # and conj(b) * a then has exactly the negated imaginary part of
    # conj(a) * b.  Adding +0.0 maps a zero imaginary part that conj made
    # negative back to +0.0.
    omega = exact_comb(data.draw(atoms_st(integer, weight_sts[0])))
    nu = exact_comb(data.draw(atoms_st(integer, weight_sts[1])))
    direct = pair_correlation(nu, omega, shape, float(R), r_max)
    mirrored = reflect_conjugate(pair_correlation(omega, nu, shape, float(R), r_max))
    assert np.array_equal(direct.keys, mirrored.keys)
    assert direct.weights.dtype == mirrored.weights.dtype
    assert (direct.weights + 0.0).tobytes() == (mirrored.weights + 0.0).tobytes()
    assert direct.coverage == mirrored.coverage


def fsum_pair_correlation(mu, nu, shape, R, r_max, variant):
    """Oracle: math.fsum of the per-pair products at each difference, over vol.

    Admission is decided exactly, as in exact_pair_correlation.  Complex
    products are formed as in the kernel, from four separately rounded real
    products, one subtraction and one addition.
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
        x = np.array(xs, dtype=mu.weights.dtype).astype(dtype)
        y = np.array(ys, dtype=nu.weights.dtype).astype(dtype)
        re = math.fsum((x.real * y.real - x.imag * y.imag).tolist())
        im = math.fsum((x.real * y.imag + x.imag * y.real).tolist())
        if re != 0 or im != 0:
            out[d] = complex(re / vol, im / vol)
    return out


# non-dyadic weights: products and per-atom sums round
inexact_real_st = st.sampled_from([0.6, -0.4, 1 / 3, 0.1, -2.7, 1.0])
inexact_complex_st = st.builds(complex, inexact_real_st, inexact_real_st)
# single-precision weights: products are still taken in double precision
inexact_single_st = st.one_of(
    inexact_real_st.map(np.float32), inexact_complex_st.map(np.complex64)
)
inexact_st = [inexact_real_st, inexact_complex_st, inexact_single_st]


@given(
    st.data(),
    st.booleans(),
    st.sampled_from(inexact_st),
    st.sampled_from(inexact_st),
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


# doubles across the whole range: subnormals, signed zeros, mantissas of all
# ones, and the largest finite values
special_double_st = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, float(2**53 - 1), -float(2**53 - 1) * 2.0**-1074,
    float(2**53 - 1) * 2.0**960, 1.0, -1.0, 0.1,
])
double_st = st.one_of(st.floats(allow_nan=False, allow_infinity=False), special_double_st)


@given(
    st.lists(
        st.tuples(st.integers(0, 2), double_st, st.integers(1, 2**29)),
        min_size=1,
        max_size=40,
    ),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_limb_rows_are_the_exact_sums(terms, reach, cancel):
    # count * x summed per group and rounded once, against exact fractions.
    # With reach, the counts of the first term's group sum to 2**35, inside
    # the no-wrap bound; with cancel, group 3 holds terms and their
    # negations, whatever the magnitudes, and one term that is left over.
    if reach:
        g0, x0, _ = terms[0]
        terms[0] = (g0, x0, 2**35 - sum(c for g, _, c in terms[1:] if g == g0))
    if cancel:
        terms += [(3, s * x, min(c, 2**29)) for _, x, c in terms[:20] for s in (1.0, -1.0)]
        terms.append((3, terms[-1][1] * 2.0**-60, 1))
    group, x, count = (np.array(column) for column in zip(*terms))
    count = count.astype(np.int64)
    assert all(count[group == g].sum() <= 2**35 for g in range(4))
    rows = eberlein._limb_rows(group, x, np.ones(len(x)), count, 4)
    want = [sum((Fraction(v) * c for g_, v, c in terms if g_ == g), Fraction(0))
            for g in range(4)]
    try:
        expected = [float(w) for w in want]
    except OverflowError:
        with pytest.raises(ValueError, match="finite"):
            eberlein._rounded(*rows)
        return
    got = eberlein._rounded(*rows)
    assert got.shape == (4, 1)
    assert got[:, 0].tolist() == expected


@given(
    st.lists(
        st.tuples(
            st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
            st.integers(1, 2**20),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_limb_rows_of_complex_products(terms):
    # each complex product from separately rounded real products
    x, y, count = (np.array(column) for column in zip(*terms))
    re = x.real * y.real - x.imag * y.imag
    im = x.real * y.imag + x.imag * y.real
    want = [sum((Fraction(float(v)) * int(c) for v, c in zip(part, count)), Fraction(0))
            for part in (re, im)]
    rows = eberlein._limb_rows(np.zeros(len(x), dtype=np.int64), x, y, count.astype(np.int64), 1)
    assert eberlein._rounded(*rows)[0].tolist() == [float(w) for w in want]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("shape", ["one_sided", "symmetric"])
def test_fb_scan_with_complex_weights_matches_an_fsum_oracle(shape, block, monkeypatch):
    # every value is the correctly rounded sum of products formed from
    # separately rounded real products, divided by the volume; a tiny block
    # makes the accumulator carry its rows from block to block
    if block:
        monkeypatch.setattr(eberlein, "FOLD_CELLS", block)
    comb = _golden_comb(seed=9)
    spec = AveragingSpec(shape, (7.0, 20.0, 41.5, 60.0))
    K = [FourierModulePoint(1, 0), FourierModulePoint(-3, 2), 0.37]
    for row in fb_scan(comb, K, spec):
        lo, hi = spec.interval(row.R)
        inside = (comb.positions >= lo - 1e-12) & (comb.positions <= hi + 1e-12)
        keys, w = comb.keys[inside], comb.weights[inside]
        if isinstance(row.k, FourierModulePoint):
            f = np.exp(-2j * math.pi * eberlein.frac_phases(row.k, keys[:, 0], keys[:, 1]))
        else:
            f = np.exp(-2j * math.pi * row.k * comb.positions[inside])
        re = math.fsum((w.real * f.real - w.imag * f.imag).tolist())
        im = math.fsum((w.real * f.imag + w.imag * f.real).tolist())
        vol = spec.vol(row.R)
        assert row.value == complex(re / vol, im / vol)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_fb_weights_and_sums_raise():
    z = lattice_comb(-20, 20)
    for w in (math.nan, math.inf, complex(0.0, math.inf)):
        bad = WeightedComb(z.keys, np.r_[z.weights[:-1].astype(type(w)), w], z.coverage)
        for k in (FourierModulePoint(0, 0), FourierModulePoint(1, 0), 0.3):
            with pytest.raises(ValueError, match="finite"):
                fb_coefficient(bad, k, "symmetric", 20.0)
    # each weight is finite, their sum at k = 0 is not
    big = WeightedComb(z.keys, np.full(len(z), 1.7e308), z.coverage)
    with pytest.raises(ValueError, match="finite"):
        fb_scan(big, [FourierModulePoint(0, 0)], AveragingSpec("symmetric", (5.0, 20.0)))
