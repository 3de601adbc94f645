import cmath
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from combsplit import combs, cps, eberlein, inflate, spectra, suites
from combsplit.combs import (
    WeightedComb,
    _decode,
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
from combsplit.zroot5 import (
    TAU,
    FourierModulePoint,
    QuadraticInt,
    _key_offsets,
    embed_array,
    sign_of,
)

from phase_oracle import frac_phase


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
    mu = WeightedComb.from_weights(keys[order], weights[order].astype(np.complex128),
                                   (-40.0, 40.0))
    nu = reflect_conjugate(mu)
    got = eberlein_convolve(mu, nu, "symmetric", 20.0, 6).atoms_dict()
    want = brute_convolve(mu, nu, "symmetric", 20.0, 6)
    assert set(got) == set(want)
    for k in got:
        assert got[k] == pytest.approx(want[k], abs=1e-12)


def test_lattice_and_golden_ratio_sweeps_agree_on_integers(monkeypatch):
    # one sweep over a lattice comb, and over the same comb in complex
    # weights with one off-lattice atom of weight 0: the second's pairs sum
    # golden-ratio key codes, yet both count the same integers, also when
    # tiny blocks make every cell's count a sum over blocks and folds
    z = lattice_comb(-50, 50)
    marked = linear_combine(
        [(1.0, z), (1.0, dirac_comb([(0, 1)], (-50.0, 50.0), weight=0.0 + 0j))]
    )
    dense = eberlein_convolve(z, z, "symmetric", 40.0, 10).atoms_dict()
    # same atoms, golden-ratio path (complex dtype + off-lattice key)
    z_complex = WeightedComb.from_weights(z.keys, z.weights.astype(np.complex128), z.coverage)
    marked_z = WeightedComb.from_weights(
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
    mu = WeightedComb.from_weights(keys, w1.astype(np.complex128), cov)
    nu = WeightedComb.from_weights(keys, w2.astype(np.complex128), cov)
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
    return WeightedComb.from_weights(keys, w, (-100.0, 100.0))


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
        window = suites.MODEL_SETS["twisted_fibonacci"][t]
        alpha = (len(tps.points[t]) / R) / cps.model_set_density(window)
        splits[t] = split_pp(tps.points[t], cps.cut_and_project(window, rng), alpha, rng)
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
    _, splits = _twisted_splitting(R)
    report = decomposition_report(
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
    _, splits = _twisted_splitting(R)
    ks = [FourierModulePoint(1, 0), FourierModulePoint(-1, 2), 0.3]
    report = decomposition_report(splits["a"], splits["a"], "one_sided", R, r_max, ks)
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
    assert decomposition_report(splits["a"], splits["a"], "one_sided", R, r_max).zero_fb_max == 0.0


def _random_split(model, alpha, seed, rng):
    # the split of a random subset P of the model points, and P
    chosen = np.random.default_rng(seed).random(len(model)) < 0.5
    omega, nu = split_pp(model[chosen], model, alpha, rng)
    return (omega, nu), model[chosen]


def same_atoms(a, b):
    # bit-equal atoms, in the same order: repr tells -0.0 from 0.0
    return repr((a.keys.tolist(), a.weights.tolist(), a.coverage)) == repr(
        (b.keys.tolist(), b.weights.tolist(), b.coverage))


@given(
    st.floats(5.0, 200.0),
    st.sampled_from(["one_sided", "symmetric"]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 25.0),
    st.integers(0, 2**32 - 1),
)
@example(R=5.0, shape="symmetric", alpha_i=0.5, alpha_j=0.75, r_max=0.9999999999999998, seed=0)
@settings(max_examples=40, deadline=None)
def test_decomposition_is_five_roundings_of_one_count(R, shape, alpha_i, alpha_j, r_max, seed):
    spec = AveragingSpec(shape, (R,))
    rng = spec.interval(R)
    model = cps.cut_and_project(cps.fibonacci_windows()["a"], rng)
    split_i, P_i = _random_split(model, alpha_i, seed, rng)
    split_j, P_j = _random_split(model, alpha_j, seed + 1, rng)
    tallies = []

    def recorded(count):
        def counting(*args):
            tallies.append(list(count(*args)))
            return tallies[-1]
        return counting

    def refused(*args):
        raise AssertionError("called linear_combine")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eberlein, "_count_pairs", recorded(eberlein._count_pairs))
        patch.setattr(eberlein, "linear_combine", refused, raising=False)
        patch.setattr(combs, "linear_combine", refused)
        report = decomposition_report(split_i, split_j, shape, R, r_max)
    assert len(tallies) == 1

    # each piece atom for atom the kernel's correlation of its combs
    (omega_i, nu_i), (omega_j, nu_j) = split_i, split_j
    point_i, point_j = dirac_comb(P_i, rng), dirac_comb(P_j, rng)
    pieces = [(report.gamma, point_i, point_j), (report.s_part, omega_i, omega_j),
              (report.zero_part, nu_i, nu_j), (report.cross_ij, omega_i, nu_j),
              (report.cross_ji, nu_i, omega_j)]
    for got, a, b in pieces:
        assert same_atoms(got, pair_correlation(a, b, shape, R, r_max))
    parts = [(1, report.gamma)] + [(-1, got) for got, _, _ in pieces[1:]]
    assert report.bilinear_residual == linear_combine(parts).sup_norm()

    # the tally of the one count: per lag and label pair (label 0 a point,
    # label 1 the rest of the model set), the pairs counted one by one
    keys = _decode(model)
    pos = keys[:, 0] + keys[:, 1] * TAU
    inside = [tuple(k) for k in keys[(pos >= rng[0] - 1e-12) & (pos <= rng[1] + 1e-12)].tolist()]
    points = [set(map(tuple, _decode(P).tolist())) for P in (P_i, P_j)]
    labels = [[(k, int(k not in point)) for k in inside] for point in points]
    want = {}
    for (x, a) in labels[0]:
        for (y, b) in labels[1]:
            if abs(y[0] - x[0] + (y[1] - x[1]) * TAU) <= r_max + 1e-9:
                cell = (y[0] - x[0], y[1] - x[1], a, b)
                want[cell] = want.get(cell, 0) + 1
    got = {}
    for codes, i, j, count in tallies[0]:
        for (m, n), a, b, c in zip(_decode(codes).tolist(), i.tolist(), j.tolist(), count.tolist()):
            got[m, n, a, b] = got.get((m, n, a, b), 0) + c
    assert {cell: c for cell, c in got.items() if c} == want


def test_decomposition_rejects_other_splits():
    R = 300.0
    model = cps.cut_and_project(cps.fibonacci_windows()["a"], (0.0, R))
    split, _ = _random_split(model, 0.4, 7, (0.0, R))
    omega, nu = split
    two_levels = WeightedComb.from_weights(omega.keys, np.r_[0.5, omega.weights[1:]], omega.coverage)
    points_only = split_pp(model[::2], model, 1.0, (0.0, R))
    fewer = WeightedComb(nu.codes[1:], nu.levels, nu.level[1:], nu.coverage)
    for bad in ((two_levels, nu), (omega, fewer), points_only):
        for split_i, split_j in ((bad, split), (split, bad)):
            with pytest.raises(ValueError, match="one level and nu on omega's keys") as info:
                decomposition_report(split_i, split_j, "one_sided", R)
            assert not isinstance(info.value, RangeError)
    # a coverage that misses the interval stays a RangeError
    for shape, radius in (("one_sided", R + 1.0), ("symmetric", R)):
        with pytest.raises(RangeError):
            decomposition_report(split, split, shape, radius)


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


def test_coverage_errors_keep_their_texts():
    # one coverage check (combs._covers) writes every kernel's RangeError
    z, wide = lattice_comb(-10, 10), lattice_comb(-100, 100)
    cases = [
        (lambda: eberlein_convolve(z, wide, "one_sided", 20.0, 5.0),
         "first factor covers (-10.0, 10.0), needs [-20.0, -0.0] for R=20.0"),
        (lambda: eberlein_convolve(wide, z, "one_sided", 20.0, 5.0, "one"),
         "second factor covers (-10.0, 10.0), needs [-5.0, 25.0] for R=20.0"),
        (lambda: fb_coefficient(z, 0.5, "one_sided", 20.0),
         "comb covers (-10.0, 10.0), needs [0.0, 20.0]"),
        (lambda: spectra.polarisation_zero_check(z, wide, "one_sided", 20.0, 1.0),
         "first comb covers (-10.0, 10.0), needs [0.0, 20.0]"),
        (lambda: spectra.polarisation_zero_check(wide, z, "symmetric", 20.0, 1.0),
         "second comb covers (-10.0, 10.0), needs [-20.0, 20.0]"),
    ]
    for call, text in cases:
        with pytest.raises(RangeError) as err:
            call()
        assert str(err.value) == text


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
    far = dirac_comb([(-(2**31) + 1, round((2**31 - 1) / TAU))], (-math.inf, math.inf))
    near = dirac_comb([(1, 1)], (-math.inf, math.inf))
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
    return WeightedComb.from_weights(keys[order], weights[order], (-math.inf, math.inf))


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
# levels
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
        bad = WeightedComb.from_weights(z.keys, np.r_[z.weights[:-1], w], z.coverage)
        with pytest.raises(ValueError, match="finite"):
            pair_correlation(bad, bad, "symmetric", 20.0, 3)
    # each product 1.69e308 is finite, their sum at lag 0 is not
    big = WeightedComb.from_weights(z.keys, np.full(len(z), 1.3e154), z.coverage)
    with pytest.raises(ValueError, match="finite"):
        pair_correlation(big, big, "symmetric", 20.0, 3)


def test_pair_sweep_memory_is_bounded_by_its_blocks(monkeypatch):
    # distinct weights on Z take the pair sweep: with small blocks its peak
    # memory stays below one int64 per pair, and the atoms do not change
    rng = np.random.default_rng(4)
    n, r_max = 2000, 20
    keys = np.stack([np.arange(n), np.zeros(n, dtype=np.int64)], axis=1)
    mu = WeightedComb.from_weights(keys, rng.normal(size=n), (0.0, float(n)))
    nu = WeightedComb.from_weights(keys, rng.normal(size=n), (0.0, float(n)))
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


@st.composite
def leveled_comb_st(draw, complex_levels):
    """Atoms on small random Z[tau] keys, each on one of 1-300 random levels
    (not all of them used, so level pairs run up to 300 * 300)."""
    n_levels = draw(st.integers(1, 300), label="levels")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = rng.normal(size=n_levels)
    if complex_levels:
        levels = levels + 1j * rng.normal(size=n_levels)
    keys_st = st.tuples(st.integers(-15, 15), st.integers(-6, 6))
    atoms = draw(st.dictionaries(keys_st, st.integers(0, n_levels - 1), max_size=24))
    keys = np.array(list(atoms), dtype=np.int64).reshape(-1, 2)
    order = np.argsort(keys[:, 0] + keys[:, 1] * TAU, kind="stable")
    level = np.array(list(atoms.values()), dtype=np.int64).reshape(-1)[order]
    index = np.min_scalar_type(n_levels - 1)
    return WeightedComb(combs._encode(keys[order]), levels, level.astype(index), (-math.inf, math.inf))


@given(
    st.data(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 1, 3, 7]),
    st.sampled_from(["one_sided", "symmetric"]),
    st.sampled_from([3, 13]),
    st.sampled_from([1, 2, 7]),
)
@settings(max_examples=150, deadline=None)
def test_sweep_and_fb_blocks_match_brute_force_over_many_levels(
    data, complex_x, complex_y, block, shape, R, r_max
):
    # blocks of 1, 3 and 7 pairs (or atoms) leave most blocks with a part of
    # one x-atom's window, and make every tally, exact sum and FB sum a sum over blocks
    mu = data.draw(leveled_comb_st(complex_x), label="mu")
    nu = data.draw(leveled_comb_st(complex_y), label="nu")
    spec = AveragingSpec(shape, (R / 2, float(R)))
    K = [FourierModulePoint(0, 0), FourierModulePoint(1, 0), FourierModulePoint(-3, 2), 0.37]
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(eberlein, "PAIR_BLOCK", block)
            patch.setattr(eberlein, "FB_BLOCK", block)
        corr = pair_correlation(mu, nu, shape, float(R), r_max)
        rows = fb_scan(nu, K, spec)
    want = fsum_pair_correlation(mu, nu, shape, R, r_max, "both")
    assert {k: complex(w) for k, w in corr.atoms_dict().items()} == want
    for row in rows:
        assert row.value == exact_fb_value(nu, row.k, spec, row.R)


def test_fb_blocks_equal_one_block(monkeypatch):
    # the level sums carried from block to block give the bits of one block
    tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 400.0)
    keys = tps.comb().keys
    rng = np.random.default_rng(3)
    spec = AveragingSpec("one_sided", (40.0, 150.0, 400.0))
    K = [*(FourierModulePoint(a, b) for a in (-2, 0, 1) for b in (-1, 0, 3)), 0.0, 0.37]
    for weights in (np.where(rng.random(len(keys)) < 0.4, 0.6, -0.4),
                    rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))):
        comb = WeightedComb.from_weights(keys, weights, (0.0, 400.0))
        monkeypatch.setattr(eberlein, "FB_BLOCK", len(keys))
        whole = [row.value for row in fb_scan(comb, K, spec)]
        for block in (1, 3, 7, 100):
            monkeypatch.setattr(eberlein, "FB_BLOCK", block)
            blocked = [row.value for row in fb_scan(comb, K, spec)]
            assert np.array(blocked).tobytes() == np.array(whole).tobytes()


def test_sweep_survives_blocks_emptied_by_the_exact_cut(monkeypatch):
    # Near 2**30 a double is a multiple of 2**-22.  The y-atom at p = 2**30 +
    # frac sits frac above the x-atom at -2**30; at r_max = frac - 5e-9 the
    # window search rounds r_max + 2**30 to p and admits the pair, and the
    # exact cut then drops it, so with one pair per block that block is empty.
    x_far, y_far = (-(2**30), 0), (2**30 - 1, 1)
    p = float(embed_array(np.array([y_far[0]]), np.array([y_far[1]]))[0])
    r_max = (p - 2**30) - 5e-9
    assert r_max + 2**30 + 1e-9 >= p and abs(p - 2**30) > r_max + 1e-9
    # two more pairs at lag 0, in blocks of their own
    mu = exact_comb({x_far: 2.0, (-(2**30) + 3, 0): 1.5, (-(2**30) + 5, 0): -0.5})
    nu = exact_comb({y_far: 0.25, (2**30 - 3, 0): 3.0, (2**30 - 5, 0): 1.0})
    R = 2.0**31
    for block in (1, eberlein.PAIR_BLOCK):
        monkeypatch.setattr(eberlein, "PAIR_BLOCK", block)
        got = eberlein_convolve(mu, nu, "symmetric", R, r_max).atoms_dict()
        want = brute_convolve(mu, nu, "symmetric", R, r_max)
        assert got == want and got
        alone = eberlein_convolve(exact_comb({x_far: 2.0}), nu, "symmetric", R, r_max)
        assert len(alone) == 0 and alone.coverage == (-r_max, r_max)


def test_sweep_codes_near_the_key_bound():
    # keys near 2**30.5 whose positions lie near 0: key sums that stay below
    # 2**31 are swept exactly (their codes span more than 2**62, so they are
    # ranked), and sums that reach 2**31 raise instead of wrapping
    m = int(2**30.5)
    big = (m, -round(m / TAU))
    assert abs(big[0] + big[1] * TAU) < 1.0
    wide = {big: 1.5, (-big[0], -big[1]): -0.75, (-big[0] + 2, -big[1] - 1): 2.0}
    small = {(0, 0): 1.0, (1, 0): -0.5, (-1, 1): 0.25, (2, -1): 3.0}
    for mu, nu in ((wide, small), (small, wide)):
        corr = pair_correlation(exact_comb(mu), exact_comb(nu), "symmetric", 4.0, 3.0)
        want = exact_pair_correlation(mu, nu, "symmetric", 4, 3, "both")
        assert corr.atoms_dict() == want and want
    # the difference big - (-big) has |m| = 2 m > 2**31
    with pytest.raises(ValueError, match="2\\*\\*31"):
        pair_correlation(exact_comb({(-big[0], -big[1]): 1.0}), exact_comb(wide),
                         "symmetric", 4.0, 3.0)


code_st = st.one_of(st.integers(-50, 50), st.integers(-(2**63) + 2**32, 2**63 - 2**32))
pair_st = st.one_of(st.integers(0, 20), st.integers(0, 2**62))


@given(st.lists(st.tuples(code_st, pair_st, st.integers(1, 2**40)), max_size=60), st.booleans())
@settings(max_examples=300, deadline=None)
def test_tally_adds_the_rows_of_every_cell(rows, counted):
    # offsets or ranks, whichever keeps a cell below 2**62, give the same
    # sorted cells; codes spread over int64 and level pairs up to 2**62
    # force the ranks
    codes, pairs, counts = (np.array(c, dtype=np.int64).reshape(-1) for c in zip(*rows or [((), (), ())]))
    want = {}
    for c, p, n in zip(codes.tolist(), pairs.tolist(), counts.tolist()):
        want[c, p] = want.get((c, p), 0) + (n if counted else 1)
    got = eberlein._tally(codes, pairs, counts if counted else None)
    assert [g.dtype for g in got] == [np.int64] * 3
    assert list(zip(*(g.tolist() for g in got))) == [(*cell, n) for cell, n in sorted(want.items())]


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
def test_averaged_atoms_are_the_exact_sums(terms, reach, cancel):
    # count * x summed per group and rounded once, against exact fractions:
    # one tally, with one level per term and the group as key code, over a
    # volume of 1.  With reach, the counts of the first term's group sum to
    # 2**35; with cancel, group 3 holds terms and their negations, whatever
    # the magnitudes, and one term that is left over.
    if reach:
        g0, x0, _ = terms[0]
        terms[0] = (g0, x0, 2**35 - sum(c for g, _, c in terms[1:] if g == g0))
    if cancel:
        terms += [(3, s * x, min(c, 2**29)) for _, x, c in terms[:20] for s in (1.0, -1.0)]
        terms.append((3, terms[-1][1] * 2.0**-60, 1))
    group, x, count = (np.array(column) for column in zip(*terms))
    count = count.astype(np.int64)
    assert all(count[group == g].sum() <= 2**35 for g in range(4))
    term = np.arange(len(x))
    tally = [(group.astype(np.int64), term, np.zeros_like(term), count)]
    want = [sum((Fraction(v) * c for g_, v, c in terms if g_ == g), Fraction(0))
            for g in range(4)]
    try:
        expected = [float(w) for w in want]
    except OverflowError:
        with pytest.raises(ValueError, match="finite"):
            eberlein._averaged_comb(tally, x, np.ones(1), 1.0, (0.0, 8.0))
        return
    got = eberlein._averaged_comb(tally, x, np.ones(1), 1.0, (0.0, 8.0))
    assert got.codes.tolist() == [g for g in range(4) if expected[g] != 0]
    assert got.weights.tolist() == [w for w in expected if w != 0]


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
def test_averaged_atoms_of_complex_products(terms):
    # each complex product from separately rounded real products: one tally
    # with one level per term on either side, all at key code 0
    x, y, count = (np.array(column) for column in zip(*terms))
    re = x.real * y.real - x.imag * y.imag
    im = x.real * y.imag + x.imag * y.real
    want = complex(*(float(sum((Fraction(float(v)) * int(c) for v, c in zip(part, count)),
                               Fraction(0))) for part in (re, im)))
    term = np.arange(len(x))
    tally = [(np.zeros_like(term), term, term, count.astype(np.int64))]
    got = eberlein._averaged_comb(tally, x, y, 1.0, (0.0, 1.0))
    assert got.weights.tolist() == ([want] if want != 0 else [])


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("shape", ["one_sided", "symmetric"])
def test_fb_scan_with_complex_weights_matches_an_fsum_oracle(shape, block, monkeypatch):
    # every value is the exact sum of the complex weights times their Q62
    # characters, over the volume, rounded once (exact_fb_value; the name is
    # kept from an oracle that summed rounded products with math.fsum); a
    # tiny block makes the sums carry from block to block
    if block:
        monkeypatch.setattr(eberlein, "FB_BLOCK", block)
    comb = _golden_comb(seed=9)
    spec = AveragingSpec(shape, (7.0, 20.0, 41.5, 60.0))
    K = [FourierModulePoint(1, 0), FourierModulePoint(-3, 2), 0.37]
    for row in fb_scan(comb, K, spec):
        assert row.value == exact_fb_value(comb, row.k, spec, row.R)


def q62_character(k, m, n):
    """The Q62 character that an FB scan sums for the key (m, n), as a pair
    of Fractions."""
    x = embed_array(np.array([m]), np.array([n]))
    parts = eberlein._characters(k, _key_offsets([m], [n]), x)
    return tuple(Fraction(int(part[0]), 2**62) for part in parts)


def exact_fb_value(comb, k, spec, R):
    """Oracle: the Fraction sum of w * (Q62 character) over the atoms in the
    interval of R, one atom at a time, over vol, rounded once per part."""
    lo, hi = spec.interval(R)
    total_re = total_im = Fraction(0)
    for (m, n), w, x in zip(comb.keys.tolist(), comb.weights.tolist(), comb.positions.tolist()):
        if lo - 1e-12 <= x <= hi + 1e-12:
            re, im = q62_character(k, m, n)
            a, b = Fraction(complex(w).real), Fraction(complex(w).imag)
            total_re += a * re - b * im
            total_im += a * im + b * re
    vol = Fraction(spec.vol(R))
    return complex(float(total_re / vol), float(total_im / vol))


def character_error(q62, phase):
    # |chi - exp(-2 pi i frac(phase))| for an mpmath phase, at the working precision
    exact = mpmath.expjpi(-2 * (phase - mpmath.floor(phase)))
    re, im = (mpmath.mpf(part.numerator) / part.denominator for part in q62)
    return abs(mpmath.mpc(re, im) - exact)


full_key_st = st.integers(-(2**31) + 1, 2**31 - 1)
full_keys_st = st.lists(st.tuples(full_key_st, full_key_st), min_size=1, max_size=8)


@given(full_keys_st, st.integers(-(2**14) + 1, 2**14 - 1), st.integers(-(2**14) + 1, 2**14 - 1))
@settings(max_examples=150, deadline=None)
def test_module_point_characters_are_within_2_to_minus_51(keys, a, b):
    # against mpmath's exp of the exact phase frac(k * x), at 80 digits
    k = FourierModulePoint(a, b)
    for m, n in keys:
        A, B = a * m + b * n, a * n + b * m + b * n
        with mpmath.workdps(80):
            error = character_error(q62_character(k, m, n),
                                    ((2 * A + B) * mpmath.sqrt(5) + 5 * B) / 10)
        assert error <= 2.0**-51, (k, m, n, float(error))


@given(full_keys_st, st.one_of(st.floats(-1e3, 1e3),
                               st.sampled_from([-0.0, 0.37, 2.0**-40, 1e15, -3e17])))
@settings(max_examples=150, deadline=None)
def test_float_k_characters_are_the_characters_of_the_rounded_phase(keys, k):
    # a float k's character is that of fl(k * x), x the embedded position
    for m, n in keys:
        x = float(embed_array(np.array([m]), np.array([n]))[0])
        with mpmath.workdps(80):
            error = character_error(q62_character(k, m, n), mpmath.mpf(k * x))
        assert error <= 2.0**-51, (k, m, n, float(error))


def test_integer_phases_give_the_character_one_exactly():
    k = FourierModulePoint(1, 1)  # 2a + b = 3 and a + 3b = 4: 2A + B = 0 on t * (4, -3)
    for t in (1, -7, 10**8):
        assert q62_character(k, 4 * t, -3 * t) == (1, 0)
    assert q62_character(FourierModulePoint(0, 0), 2**31 - 1, -(2**31) + 1) == (1, 0)
    assert q62_character(0.0, 5, 3) == q62_character(0.5, 6, 0) == (1, 0)


LEVEL_SETS = {
    "one": [0.7],
    "two": [1 - 0.6180339887498949, -0.6180339887498949],
    "complex": [0.3 + 1.1j, -0.25 - 0.5j, 2.0],
}


def leveled_fibonacci_comb(levels, R, symmetric):
    # the Fibonacci chain on [0, R] (and its mirror), levels drawn per atom
    codes = inflate.realize_geometric(inflate.fibonacci_rule(), "a", R).comb().codes
    if symmetric:
        codes = np.concatenate([-codes[::-1], codes[1:]])
    level = np.random.default_rng(len(levels)).integers(0, len(levels), len(codes))
    return WeightedComb(codes, np.array(levels), level.astype(np.uint8),
                        (-R if symmetric else 0.0, R))


@pytest.mark.parametrize("levels", LEVEL_SETS.values(), ids=LEVEL_SETS)
@pytest.mark.parametrize("shape", ["one_sided", "symmetric"])
def test_fb_values_are_the_level_weighted_character_sums(levels, shape, monkeypatch):
    # sum_v v * sum chi / vol, rounded once, against a Fraction sum one atom
    # at a time, on a nested grid of three R with FB blocks of 13 atoms
    comb = leveled_fibonacci_comb(levels, 60.0, symmetric=True)
    spec = AveragingSpec(shape, (5.0, 21.5, 60.0))
    K = [FourierModulePoint(1, 0), FourierModulePoint(-3, 2), FourierModulePoint(7, -4), 0.37, -2.5]
    monkeypatch.setattr(eberlein, "FB_BLOCK", 13)
    for row in fb_scan(comb, K, spec):
        assert row.value == exact_fb_value(comb, row.k, spec, row.R)


@pytest.mark.parametrize("levels", LEVEL_SETS.values(), ids=LEVEL_SETS)
def test_fb_at_zero_is_the_level_weighted_count_over_vol(levels):
    comb = leveled_fibonacci_comb(levels, 100.0, symmetric=False)
    spec = AveragingSpec("one_sided", (10.0, 45.5, 100.0))
    for row in fb_scan(comb, [FourierModulePoint(0, 0), 0.0], spec):
        i, j = combs._bounds(comb, 0.0, row.R)
        counts = np.bincount(comb.level[i:j], minlength=len(levels)).tolist()
        re, im = (sum(Fraction(getattr(complex(v), part)) * c for v, c in zip(levels, counts))
                  / Fraction(row.R) for part in ("real", "imag"))
        assert row.value == complex(float(re), float(im))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_fb_weights_and_sums_raise():
    z = lattice_comb(-20, 20)
    for w in (math.nan, math.inf, complex(0.0, math.inf)):
        w_bad = np.r_[z.weights[:-1].astype(type(w)), w]
        bad = WeightedComb.from_weights(z.keys, w_bad, z.coverage)
        for k in (FourierModulePoint(0, 0), FourierModulePoint(1, 0), 0.3):
            with pytest.raises(ValueError, match="finite"):
                fb_coefficient(bad, k, "symmetric", 20.0)
    # each weight is finite, their sum at k = 0 is not
    big = WeightedComb.from_weights(z.keys, np.full(len(z), 1.7e308), z.coverage)
    with pytest.raises(ValueError, match="finite"):
        fb_scan(big, [FourierModulePoint(0, 0)], AveragingSpec("symmetric", (5.0, 20.0)))


def bit_row(bits):
    # bits packed by numpy: site t as bit t % 64 of the '<u8' word t // 64
    octets = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    return np.pad(octets, (0, -len(octets) % 8)).view("<u8")


# rows of n sites with n mod 64 in {0, 1, 63}, up to five words
row_length_st = st.sampled_from([64 * k + d for k in range(5) for d in (0, 1, 63) if 64 * k + d])


@given(
    # rows across one 64-bit word's edge are drawn as often as short ones
    st.one_of(st.lists(st.booleans(), min_size=1, max_size=80),
              st.lists(st.booleans(), min_size=60, max_size=80),
              row_length_st.flatmap(lambda n: st.lists(st.booleans(), min_size=n, max_size=n))),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_lattice_tally_counts_every_label_pair(bits, data):
    # r_max from 1 to twice the row: lags of 64 and more, and r_max >= n
    r_max = data.draw(st.integers(1, 2 * len(bits)), label="r_max")
    occupied = np.array(bits)
    codes, i, j, count = eberlein._lattice_tally(bit_row(occupied), len(bits), r_max)
    assert count.dtype == np.int64
    keys = _decode(codes)
    assert not keys[:, 1].any()
    reach = min(r_max, len(bits) - 1)
    # one cell per lag -L..L and label pair, label 0 the True sites P and
    # label 1 the rest of M; its count #{(x, y) in A x B : y - x = s}, pair by pair
    cells = sorted(zip(i.tolist(), j.tolist(), keys[:, 0].tolist()))
    assert cells == [(a, b, s) for a in (0, 1) for b in (0, 1) for s in range(-reach, reach + 1)]
    labels = (np.flatnonzero(occupied).tolist(), np.flatnonzero(~occupied).tolist())
    pairs = {(a, b): Counter(y - x for x in labels[a] for y in labels[b])
             for a in (0, 1) for b in (0, 1)}
    for a, b, s, got in zip(i.tolist(), j.tolist(), keys[:, 0].tolist(), count.tolist()):
        assert got == pairs[a, b][s]


@given(st.data(), st.sampled_from([1, 2, None]))
@settings(max_examples=150, deadline=None)
def test_shift_counts_equal_a_count_per_site(data, word_block):
    # counts[c] = #{t : row[t] and row[t + d_c]}, site by site, for rows of
    # n mod 64 in {0, 1, 63} sites, offsets across whole words and past the
    # row's end, and word blocks of one or two words
    n = data.draw(row_length_st, label="sites")
    density = data.draw(st.sampled_from([0.05, 0.5, 1.0]), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bits = rng.random(n) < density
    offsets = data.draw(st.lists(st.integers(0, n + 70), min_size=1, max_size=8), label="offsets")
    with pytest.MonkeyPatch.context() as patch:
        if word_block:
            patch.setattr(eberlein, "WORD_BLOCK", word_block)
        got = eberlein._shift_counts(bit_row(bits), np.array(offsets))
    assert got.shape == (len(offsets),) and got.dtype == np.int64
    for c, d in enumerate(offsets):
        want = sum(1 for t in range(n) if bits[t] and t + d < n and bits[t + d])
        assert got[c] == want, c


def test_bit_rows_take_blocks_of_whole_bytes():
    # a row of 150 sites from a block function, which is asked for whole
    # words of about SITE_BLOCK sites, in site order; and read back
    bits = np.random.default_rng(3).random(150) < 0.5
    for site_block in (1, 64, 100, 128, eberlein.SITE_BLOCK):
        asked = []

        def block(a, b):
            asked.append((a, b))
            return bits[a:b]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eberlein, "SITE_BLOCK", site_block)
            row = eberlein._bit_rows(150, block)
            sites = list(eberlein._row_sites(row, 150))
        assert row.dtype == np.dtype("<u8")
        assert np.array_equal(row, bit_row(bits))
        step = 64 * max(1, site_block // 64)
        assert asked == [(a, min(a + step, 150)) for a in range(0, 150, step)]
        assert all(s.dtype == np.int64 for s in sites)
        assert np.array_equal(np.concatenate(sites), np.flatnonzero(bits))


@pytest.mark.parametrize("integer", [True, False])
def test_more_than_255_levels_take_a_uint16_index(integer):
    # distinct random weights give every atom its own level, so the pair
    # sweep reads uint16 indices, on Z and off it
    rng = np.random.default_rng(21)
    if integer:
        keys = [(m, 0) for m in range(-150, 151)]
    else:
        tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 200.0)
        keys = [(m, n) for m, n in tps.comb().keys.tolist()]
        keys += [(-m, -n) for m, n in keys if (m, n) != (0, 0)]
    weights = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    mu = exact_comb(dict(zip(keys, weights)))
    nu = exact_comb(dict(zip(keys, rng.normal(size=len(keys)))))
    assert len(mu.levels) == len(keys) > 256 and mu.level.dtype == np.uint16
    for other in (nu, lattice_comb(-200, 200, 0.5)):
        corr = pair_correlation(mu, other, "symmetric", 140.0, 9)
        want = fsum_pair_correlation(mu, other, "symmetric", 140, 9, "both")
        assert {k: complex(w) for k, w in corr.atoms_dict().items()} == want


def test_sparse_integer_supports_take_the_pair_sweep():
    # bit rows would span all 1e8 sites between three atoms (hundreds of MiB);
    # integer supports are swept pair by pair, in memory of their atoms
    comb = dirac_comb([(0, 0), (50_000_000, 0), (100_000_000, 0)], (0.0, 1e8))
    tracemalloc.start()
    try:
        corr = pair_correlation(comb, comb, "one_sided", 1e8, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corr.atoms_dict() == {(0, 0): 3e-08}
    assert peak < 1 << 20, peak


@given(
    st.data(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 3, 7, 24]),
    st.sampled_from([1, 3, 7]),
    st.sampled_from([1, 3, 7]),
    st.sampled_from(["one_sided", "symmetric"]),
    st.sampled_from(["both", "one"]),
    st.sampled_from([0.25, 3.0, 13.0]),
    st.sampled_from([1, 2, 7]),
)
@settings(max_examples=150, deadline=None)
def test_block_sizes_change_no_output(
    data, complex_x, complex_y, pair_block, fold_cells, fb_block, shape, variant, R, r_max
):
    # x-chunks of PAIR_BLOCK >> 3 atoms (at least one), pair blocks, folds and
    # FB blocks of a few pairs, cells or atoms cut every y-window, tally and
    # exact sum somewhere else: a pair dropped or counted twice at a chunk or
    # block edge changes some bit.  R = 0.25 leaves most restrictions empty.
    mu = data.draw(leveled_comb_st(complex_x), label="mu")
    nu = data.draw(leveled_comb_st(complex_y), label="nu")
    spec = AveragingSpec(shape, (R / 2, R))
    K = [FourierModulePoint(0, 0), FourierModulePoint(1, 0), FourierModulePoint(-3, 2), 0.37]

    def outputs():
        corr = pair_correlation(mu, nu, shape, R, r_max, variant)
        rows = fb_scan(nu, K, spec)
        return (repr((corr.keys.tolist(), corr.weights.tolist(), corr.coverage)),
                repr([(row.R, row.value, row.cauchy) for row in rows]))

    default = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eberlein, "PAIR_BLOCK", pair_block)
        patch.setattr(eberlein, "FOLD_CELLS", fold_cells)
        patch.setattr(eberlein, "FB_BLOCK", fb_block)
        assert outputs() == default


F35, F36 = 9227465, 14930352


@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-20, 20), st.integers(0, 2)),
             max_size=30, unique=True),
    st.booleans(),
)
@example([(0, 0, 0), (0, 0, 1), (0, 0, 2), (5, -3, 1), (-2, 1, 0)], True)
@settings(max_examples=200, deadline=None)
def test_binary_search_restriction_equals_searchsorted(offsets, far):
    # keys near 0, or near 2**30, where a double's ulp is 2**-22 and keys
    # t * (-F36, F35) apart (F35 tau - F36 is -3e-8) form runs of one double
    base = 2**30 if far else 0
    keys = np.array([(base + a - t * F36, b + t * F35) for a, b, t in offsets],
                    dtype=np.int64).reshape(-1, 2)
    comb = dirac_comb(keys, (-math.inf, math.inf))
    pos = comb.positions
    values = sorted({v for p in pos.tolist() for v in (
        p - 1e-12, p, p + 1e-12, math.nextafter(p, -math.inf), math.nextafter(p, math.inf))})
    for v in values or [0.0]:
        for side in ("left", "right"):
            assert combs._search(comb.codes, v, side) == np.searchsorted(pos, v, side=side)
    for lo, hi in zip(values, values[::-1]):
        i, j = np.searchsorted(pos, lo - 1e-12, "left"), np.searchsorted(pos, hi + 1e-12, "right")
        assert combs._bounds(comb, lo, hi) == (i, j)
        codes_in, level_in = eberlein._restrict_arrays(comb, lo, hi)
        assert np.array_equal(codes_in, comb.codes[i:j]) and np.array_equal(level_in, comb.level[i:j])


def _above_live(run):
    # the tracemalloc peak of run() above what was live when it started
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_pair_sweep_and_fb_scan_hold_no_whole_factor_arrays():
    # How much the above-live peaks of one pair_correlation and one fb_scan on
    # the twisted chain grow per added atom of nu, from R = 4e4 to 2e5.  nu has
    # 17889 and 89443 atoms there, so both runs fill an FB_BLOCK of 16384 atoms
    # and an x-chunk, and block temporaries cancel.  What is left grows with
    # the factors: pair_correlation's reflected key copy (reflect_conjugate,
    # 16 B/atom).  Positions, windows and bins over a whole factor took 73
    # B/atom in the pair sweep and 25 B/atom in the FB scan.
    peaks = []
    for R in (4e4, 2e5):
        omega, nu = suites.system_context("twisted_fibonacci", R).splits["a"]
        spec = AveragingSpec("one_sided", (R / 100, R / 10, R))
        pair = _above_live(lambda: pair_correlation(omega, nu, "one_sided", R, 20.0))
        fb = _above_live(lambda: fb_scan(nu, suites.preset_k_points(), spec))
        peaks.append((len(nu), pair, fb))
    (n0, pair0, fb0), (n1, pair1, fb1) = peaks
    assert n0 > eberlein.FB_BLOCK
    assert (pair1 - pair0) / (n1 - n0) < 24, (pair0, pair1)
    assert (fb1 - fb0) / (n1 - n0) < 8, (fb0, fb1)
