import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import cps, inflate
from combsplit.combs import (
    ContainmentError,
    WeightedComb,
    dirac_comb,
    lattice_comb,
    linear_combine,
    reflect_conjugate,
    restrict,
    split_pp,
    split_remainder,
)
from combsplit.zroot5 import embed_array


def small_comb(keys_weights, coverage=(-50.0, 50.0)):
    keys = np.array([k for k, _ in keys_weights], dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, w in keys_weights], dtype=np.complex128)
    pos = keys[:, 0] + keys[:, 1] * ((1 + math.sqrt(5)) / 2)
    order = np.argsort(pos, kind="stable")
    return WeightedComb(keys[order], weights[order], coverage)


key_st = st.tuples(st.integers(-20, 20), st.integers(-12, 12))
weight_st = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=5, allow_nan=False, allow_infinity=False
)
comb_st = st.dictionaries(key_st, weight_st, min_size=1, max_size=12).map(
    lambda d: small_comb(list(d.items()))
)


def test_reflect_conjugate_examples():
    mu = small_comb([((0, 1), 1.0)])
    r = reflect_conjugate(mu)
    assert r.atoms_dict() == {(0, -1): 1.0}

    mu = small_comb([((3, -2), 2 + 1j)])
    assert reflect_conjugate(mu).atoms_dict() == {(-3, 2): 2 - 1j}


@given(comb_st)
@settings(max_examples=50)
def test_reflect_conjugate_is_involution(mu):
    twice = reflect_conjugate(reflect_conjugate(mu))
    assert twice.atoms_dict() == mu.atoms_dict()
    assert twice.coverage == mu.coverage


def test_linear_combine_identity_and_cancellation():
    mu = small_comb([((0, 0), 1.5), ((2, 1), -0.5j)])
    same = linear_combine([(1.0, mu)])
    assert same.atoms_dict() == mu.atoms_dict()
    gone = linear_combine([(1.0, mu), (-1.0, mu)])
    assert len(gone) == 0


def test_linear_combine_realizes_half_model_comb():
    model = cps.cut_and_project(cps.fibonacci_windows()["a"], (0.0, 50.0))
    full = dirac_comb(model, (0.0, 50.0))
    half = linear_combine([(0.5, full)])
    assert np.all(half.weights == 0.5)
    assert len(half) == len(full)


def test_linear_combine_crops_to_coverage_intersection():
    wide = lattice_comb(-10, 10)
    narrow = lattice_comb(-3, 3)
    out = linear_combine([(1.0, wide), (1.0, narrow)])
    assert out.coverage == (-3.0, 3.0)
    assert set(out.keys[:, 0].tolist()) == set(range(-3, 4))
    assert np.all(out.weights == 2.0)


def test_restrict_examples():
    z = lattice_comb(-10, 10)
    r = restrict(z, -2.5, 2.5)
    assert sorted(r.keys[:, 0].tolist()) == [-2, -1, 0, 1, 2]
    again = restrict(r, -2.5, 2.5)
    assert again.atoms_dict() == r.atoms_dict()
    assert len(restrict(z, 3.0, -3.0)) == 0


@given(comb_st, st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
@settings(max_examples=50)
def test_restrict_commutes_with_linear_combine(mu, a, b):
    nu = reflect_conjugate(mu)  # second comb on the same coverage
    lo, hi = -4.0, 7.0
    left = restrict(linear_combine([(a, mu), (b, nu)]), lo, hi)
    right = linear_combine(
        [(a, restrict(mu, lo, hi)), (b, restrict(nu, lo, hi))]
    )
    la, ra = left.atoms_dict(), right.atoms_dict()
    assert set(la) == set(ra)
    for k in la:
        assert la[k] == pytest.approx(ra[k], abs=1e-12)


@given(comb_st, st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False))
@settings(max_examples=50)
def test_reflect_of_combination_is_combination_of_reflections(mu, c):
    nu = reflect_conjugate(mu)
    left = reflect_conjugate(linear_combine([(c, mu), (1.0, nu)]))
    right = linear_combine(
        [(np.conj(c), reflect_conjugate(mu)), (1.0, reflect_conjugate(nu))]
    )
    assert left.atoms_dict() == right.atoms_dict()


def _twisted_split(R=500.0):
    rule = inflate.twisted_fibonacci_rule()
    tps = inflate.realize_geometric(rule, "a", R)
    window = cps.twisted_fibonacci_windows()["a"]
    model = cps.cut_and_project(window, (0.0, R))
    alpha = (len(tps.points["a"]) / R) / cps.model_set_density(window)
    omega, nu = split_pp(tps.points["a"], window, alpha, (0.0, R), model)
    return tps, omega, nu, alpha


def test_split_pp_alpha_near_half_and_weights():
    tps, omega, nu, alpha = _twisted_split()
    assert alpha == pytest.approx(0.5, abs=0.01)
    assert np.all(omega.weights == alpha)
    assert set(nu.weights.real.tolist()) == {1.0 - alpha, -alpha}


def test_split_pp_reconstruction_is_exact():
    tps, omega, nu, _ = _twisted_split()
    recombined = linear_combine([(1.0, omega), (1.0, nu)])
    original = dirac_comb(tps.points["a"], (0.0, 500.0))
    assert recombined.atoms_dict() == original.atoms_dict()


def test_split_pp_rejects_unsorted_model_points():
    tps, *_ = _twisted_split()
    window = cps.twisted_fibonacci_windows()["a"]
    model = cps.cut_and_project(window, (0.0, 500.0))
    with pytest.raises(ValueError, match="sorted by position"):
        split_pp(tps.points["a"], window, 0.5, (0.0, 500.0), model[::-1])


def test_split_pp_reports_containment_violation():
    tps, *_ = _twisted_split()
    window = cps.twisted_fibonacci_windows()["a"]
    bad_points = np.vstack([tps.points["a"], [[1, 0]]])  # star(1) = 1, outside
    with pytest.raises(ContainmentError) as err:
        split_pp(bad_points, window, 0.5, (0.0, 500.0))
    assert (1, 0) in err.value.offenders


def test_thue_morse_split_signs():
    R = 100.0
    tps = inflate.realize_geometric(inflate.thue_morse_rule(), "a", R)
    half = lattice_comb(0, 100, 0.5)
    nu_a = split_remainder(tps.points["a"], half)
    nu_b = split_remainder(tps.points["b"], half)
    assert nu_a.atoms_dict() == linear_combine(
        [(1.0, tps.comb("a")), (-1.0, half)]).atoms_dict()
    minus_a = linear_combine([(-1.0, nu_a)])
    assert nu_b.atoms_dict() == minus_a.atoms_dict()
    assert set(np.unique(nu_a.weights.real).tolist()) == {-0.5, 0.5}


def test_zero_weight_atoms_are_dropped():
    mu = small_comb([((0, 0), 1.0), ((1, 0), 2.0)])
    nu = small_comb([((0, 0), -1.0)])
    out = linear_combine([(1.0, mu), (1.0, nu)])
    assert out.atoms_dict() == {(1, 0): 2.0}


def test_keys_beyond_encoder_range_raise():
    # m = 2**31 would alias (m - 1, n + 2**32) in a wrapped int64 code
    big = small_comb([((2**31, 0), 1.0), ((0, 0), 1.0)],
                     coverage=(-math.inf, math.inf))
    with pytest.raises(ValueError, match=r"2\*\*31"):
        linear_combine([(1.0, big)])
    pts = np.array([[0, 0], [2**31, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"2\*\*31") as err:
        split_pp(pts, cps.fibonacci_windows()["a"], 1.0, (0.0, 3e9),
                 model_points=pts)
    assert not isinstance(err.value, ContainmentError)
    # just inside the bound the codes stay distinct
    edge = small_comb([((2**31 - 1, 0), 1.0), ((-(2**31) + 1, 2**31 - 1), 2.0)],
                      coverage=(-math.inf, math.inf))
    assert linear_combine([(1.0, edge)]).atoms_dict() == edge.atoms_dict()


def _model_set(draw):
    # a lattice stretch or a Z[tau] model set, each sorted by position
    if draw(st.booleans()):
        lo = draw(st.integers(-30, 0))
        return lattice_comb(lo, lo + draw(st.integers(0, 40))).keys, (float(lo), 40.0)
    windows = draw(st.sampled_from([cps.fibonacci_windows(), cps.twisted_fibonacci_windows()]))
    window = windows[draw(st.sampled_from(sorted(windows)))]
    rng = (draw(st.floats(-40.0, 0.0)), draw(st.floats(0.0, 40.0)))
    return cps.cut_and_project(window, rng), rng


@st.composite
def split_case_st(draw):
    model, rng = _model_set(draw)
    in_points = np.array(draw(st.lists(st.booleans(), min_size=len(model),
                                       max_size=len(model))), dtype=bool)
    points = model[in_points]
    order = draw(st.permutations(range(len(points))))
    alpha = draw(st.one_of(st.floats(0.0, 1.0), st.just(0.5), st.just(1.0)))
    return model, rng, points[list(order)], alpha


@given(split_case_st())
@settings(max_examples=200, deadline=None)
def test_split_remainder_matches_dict_oracle(case):
    model, rng, points, alpha = case
    omega = dirac_comb(model, rng, weight=alpha)
    nu = split_remainder(points, omega)

    # oracle: 1_P - alpha * 1_M atom by atom, on omega's coverage
    lo, hi = rng
    in_p = set(map(tuple, points.tolist()))
    inside = {k for k, x in zip(map(tuple, model.tolist()),
                                embed_array(model[:, 0], model[:, 1])) if lo <= x <= hi}
    want = {k: (1.0 if k in in_p else 0.0) - alpha for k in inside}
    want = {k: w for k, w in want.items() if w != 0}
    keys = list(map(tuple, nu.keys.tolist()))
    assert nu.coverage == (lo, hi)
    assert set(keys) == set(want)
    assert np.array([want[k] for k in keys], dtype=np.float64).tobytes() == nu.weights.tobytes()
    assert np.all(nu.weights != 0)
    assert np.all(np.diff(nu.positions) > 0)
    # omega + nu = delta_points atom for atom on omega's coverage
    sums = dict.fromkeys(inside, 0.0)
    for comb in (omega, nu):
        for k, w in comb.atoms_dict().items():
            if k in sums:
                sums[k] += w
    assert {k: w for k, w in sums.items() if w != 0} == dict.fromkeys(in_p & inside, 1.0)


def test_split_remainder_drops_zero_atoms():
    omega = lattice_comb(0, 9, 1.0)
    points = np.array([[2, 0], [7, 0]])
    nu = split_remainder(points, omega)
    assert nu.atoms_dict() == {(m, 0): -1.0 for m in range(10) if m not in (2, 7)}
    empty = split_remainder(points, lattice_comb(0, 9, 0.0))
    assert empty.atoms_dict() == {(2, 0): 1.0, (7, 0): 1.0}


def test_split_keeps_nu_inside_omegas_coverage():
    # a comb may hold atoms up to 1e-9 past its coverage; nu drops them
    omega = WeightedComb(lattice_comb(0, 9).keys, np.full(10, 0.5), (0.0, 9.0 - 5e-10))
    nu = split_remainder(np.array([[9, 0], [4, 0]]), omega)
    assert nu.coverage == omega.coverage
    assert nu.atoms_dict() == {(m, 0): 0.5 if m == 4 else -0.5 for m in range(9)}


def test_split_containment_is_checked_outside_the_coverage():
    omega = lattice_comb(0, 20, 0.5)
    # (30, 0) and (-4, 0) lie outside M and outside its coverage [0, 20]
    points = np.array([[3, 0], [30, 0], [5, 0], [-4, 0]])
    with pytest.raises(ContainmentError, match="^2 point") as err:
        split_remainder(points, omega)
    assert err.value.offenders == [(30, 0), (-4, 0)]
    # a Z[tau] point beyond the window's range, and the first 20 of 25 in order
    window = cps.fibonacci_windows()["a"]
    model = cps.cut_and_project(window, (0.0, 50.0))
    outside = [(m, 0) for m in range(100, 125)]
    with pytest.raises(ContainmentError, match="^25 point") as err:
        split_pp(np.vstack([model[:5], outside]), window, 0.5, (0.0, 50.0), model)
    assert err.value.offenders == outside[:20]


def test_split_finds_points_among_keys_of_equal_position():
    # F_35 tau - F_36 is below half an ulp at 2**30, so these three distinct
    # keys embed to one double
    tie = [(2**30, 0), (2**30 - 14930352, 9227465), (2**30 - 24157817, 14930352)]
    assert len(set(embed_array(*np.array(tie).T).tolist())) == 1
    for model in (tie[:2], tie[1::-1]):
        omega = WeightedComb(np.array(model), np.full(2, 0.25), (-math.inf, math.inf))
        for point in tie[:2]:
            nu = split_remainder(np.array([point]), omega)
            assert nu.atoms_dict() == {k: 0.75 if k == point else -0.25 for k in model}
        with pytest.raises(ContainmentError) as err:
            split_remainder(np.array([tie[2]]), omega)
        assert err.value.offenders == [tie[2]]


def test_split_rejects_repeated_points():
    omega = lattice_comb(0, 5, 0.5)
    with pytest.raises(ValueError, match="distinct"):
        split_remainder(np.array([[1, 0], [2, 0], [1, 0]]), omega)
