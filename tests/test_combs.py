import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import combs, cps, inflate, suites
from combsplit.combs import (
    ContainmentError,
    WeightedComb,
    dirac_comb,
    lattice_comb,
    linear_combine,
    reflect_conjugate,
    split_pp,
    split_remainder,
)
from combsplit.zroot5 import _decode, embed_array


def small_comb(keys_weights, coverage=(-50.0, 50.0)):
    keys = np.array([k for k, _ in keys_weights], dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, w in keys_weights], dtype=np.float64)
    return WeightedComb.from_weights(keys, weights, coverage)


def restrict(mu, lo, hi):
    """Keep the atoms inside the closed interval [lo, hi], as a fully known
    finite measure, so with the whole line as coverage."""
    pos = mu.positions
    mask = (pos >= lo) & (pos <= hi)
    return WeightedComb(mu.codes[mask], mu.levels, mu.level[mask], (-math.inf, math.inf))


key_st = st.tuples(st.integers(-20, 20), st.integers(-12, 12))
weight_st = st.floats(0.1, 5) | st.floats(-5, -0.1)
comb_st = st.dictionaries(key_st, weight_st, min_size=1, max_size=12).map(
    lambda d: small_comb(list(d.items()))
)


def test_reflect_conjugate_examples():
    mu = small_comb([((0, 1), 1.0)])
    r = reflect_conjugate(mu)
    assert r.atoms_dict() == {(0, -1): 1.0}

    mu = small_comb([((3, -2), -2.5)])
    assert reflect_conjugate(mu).atoms_dict() == {(-3, 2): -2.5}


@given(comb_st)
@settings(max_examples=50)
def test_reflect_conjugate_is_involution(mu):
    twice = reflect_conjugate(reflect_conjugate(mu))
    assert twice.atoms_dict() == mu.atoms_dict()
    assert twice.coverage == mu.coverage


def test_linear_combine_identity_and_cancellation():
    mu = small_comb([((0, 0), 1.5), ((2, 1), -0.5)])
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


@given(comb_st, st.floats(-3, 3), st.floats(-3, 3))
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


@given(comb_st, st.floats(-3, 3))
@settings(max_examples=50)
def test_reflect_of_combination_is_combination_of_reflections(mu, c):
    nu = reflect_conjugate(mu)
    left = reflect_conjugate(linear_combine([(c, mu), (1.0, nu)]))
    right = linear_combine(
        [(c, reflect_conjugate(mu)), (1.0, reflect_conjugate(nu))]
    )
    assert left.atoms_dict() == right.atoms_dict()


def _twisted_split(R=500.0):
    rule = inflate.twisted_fibonacci_rule()
    tps = inflate.realize_geometric(rule, "a", R)
    window = suites.MODEL_SETS["twisted_fibonacci"]["a"]
    model = cps.cut_and_project(window, (0.0, R))
    alpha = (len(tps.points["a"]) / R) / cps.model_set_density(window)
    omega, nu = split_pp(tps.points["a"], model, alpha, (0.0, R))
    return tps, omega, nu, alpha


def test_split_pp_alpha_near_half_and_weights():
    tps, omega, nu, alpha = _twisted_split()
    assert alpha == pytest.approx(0.5, abs=0.01)
    assert np.all(omega.weights == alpha)
    assert set(nu.weights.tolist()) == {1.0 - alpha, -alpha}


def test_split_pp_reconstruction_is_exact():
    tps, omega, nu, _ = _twisted_split()
    recombined = linear_combine([(1.0, omega), (1.0, nu)])
    original = dirac_comb(tps.points["a"], (0.0, 500.0))
    assert recombined.atoms_dict() == original.atoms_dict()


def test_split_pp_rejects_unsorted_model_points():
    tps, *_ = _twisted_split()
    window = suites.MODEL_SETS["twisted_fibonacci"]["a"]
    model = cps.cut_and_project(window, (0.0, 500.0))
    with pytest.raises(ValueError, match="sorted by position"):
        split_pp(tps.points["a"], model[::-1], 0.5, (0.0, 500.0))


def test_split_pp_reports_containment_violation():
    tps, *_ = _twisted_split()
    window = suites.MODEL_SETS["twisted_fibonacci"]["a"]
    bad_points = np.vstack([tps.points["a"], [[1, 0]]])  # star(1) = 1, outside
    with pytest.raises(ContainmentError) as err:
        split_pp(bad_points, cps.cut_and_project(window, (0.0, 500.0)), 0.5, (0.0, 500.0))
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
    assert set(np.unique(nu_a.weights).tolist()) == {-0.5, 0.5}


def test_complex_levels_and_weights_are_refused():
    # every comb weighs real levels: complex ones are refused with one
    # ValueError wherever they enter, never with numpy's TypeError
    z = lattice_comb(-3, 3)
    for make in (
        lambda: WeightedComb(z.codes, np.array([1.0 + 0j]), z.level, z.coverage),
        lambda: WeightedComb.from_weights(z.keys, z.weights.astype(np.complex64), z.coverage),
        lambda: dirac_comb(z.keys, z.coverage, weight=1j),
        lambda: lattice_comb(0, 3, weight=2 - 1j),
        lambda: linear_combine([(1.0, z), (0.5j, z)]),
        lambda: linear_combine([(np.complex64(1.0), z)]),
    ):
        with pytest.raises(ValueError, match="^comb weights must be real, got complex ones$"):
            make()


def test_zero_weight_atoms_are_dropped():
    mu = small_comb([((0, 0), 1.0), ((1, 0), 2.0)])
    nu = small_comb([((0, 0), -1.0)])
    out = linear_combine([(1.0, mu), (1.0, nu)])
    assert out.atoms_dict() == {(1, 0): 2.0}


def test_keys_beyond_encoder_range_raise():
    # m = 2**31 would alias (m - 1, n + 2**32) in a wrapped int64 code, so no
    # comb holds it; codes handed over directly are checked as well
    with pytest.raises(ValueError, match=r"2\*\*31"):
        small_comb([((2**31, 0), 1.0), ((0, 0), 1.0)], coverage=(-math.inf, math.inf))
    for code in (2**63 - 1, -(2**31), -(2**63)):  # m = -2**31, n = -2**31, m = -2**31
        with pytest.raises(ValueError, match=r"2\*\*31"):
            WeightedComb(np.array([0, code]), np.array([1.0]), np.zeros(2, np.uint8),
                         (-math.inf, math.inf))
    pts = np.array([[0, 0], [2**31, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"2\*\*31") as err:
        split_pp(pts, np.zeros(1, dtype=np.int64), 1.0, (0.0, 3e9))
    assert not isinstance(err.value, ContainmentError)
    # just inside the bound the codes stay distinct
    edge = small_comb([((2**31 - 1, 0), 1.0), ((-(2**31) + 1, 2**31 - 1), 2.0)],
                      coverage=(-math.inf, math.inf))
    assert linear_combine([(1.0, edge)]).atoms_dict() == edge.atoms_dict()


bound_key_st = st.tuples(st.integers(-(2**31) + 1, 2**31 - 1), st.integers(-(2**31) + 1, 2**31 - 1))


@given(st.lists(bound_key_st, max_size=30))
@settings(max_examples=200, deadline=None)
def test_key_codes_round_trip_and_negate(keys):
    # over the whole key range: a comb's keys are the keys it was given, the
    # code of -k is minus the code of k, and codes order like the keys
    keys = np.array(keys, dtype=np.int64).reshape(-1, 2)
    codes = combs._encode(keys)
    assert np.array_equal(combs._decode(codes), keys)
    assert np.array_equal(combs._encode(-keys), -codes)
    assert [tuple(k) for k in keys[np.argsort(codes, kind="stable")].tolist()] == \
        sorted(map(tuple, keys.tolist()))
    comb = WeightedComb.from_weights(keys, np.arange(len(keys)) + 1.0, (-math.inf, math.inf))
    order = np.argsort(embed_array(keys[:, 0], keys[:, 1]), kind="stable")
    assert np.array_equal(comb.keys, keys[order]) and np.array_equal(comb.codes, codes[order])


@given(st.dictionaries(bound_key_st, weight_st, max_size=30), st.booleans())
@settings(max_examples=200, deadline=None)
def test_reflected_comb_equals_the_key_pair_oracle(atoms, one_level):
    # the reflected codes are -codes reversed; the oracle negates the (N, 2)
    # keys and sorts them by position, stably from the reversed order
    coverage = (-1e10, 1e10)
    if one_level:
        mu = dirac_comb(list(atoms), coverage, weight=-2.5)
    else:
        mu = small_comb(list(atoms.items()), coverage)
    r = reflect_conjugate(mu)
    keys = -mu.keys[::-1]
    assert np.array_equal(r.keys, keys) and np.array_equal(r.codes, combs._encode(keys))
    assert np.all(np.diff(embed_array(keys[:, 0], keys[:, 1])) >= 0)
    assert r.weights.tobytes() == mu.weights[::-1].tobytes()
    assert r.coverage == (-1e10, 1e10) and len(r.level) == len(r)


F35, F36 = 9227465, 14930352


def _model_set(draw):
    # a lattice stretch, a Z[tau] model set, or keys near 2**30 in runs t *
    # (-F36, F35) apart (F35 tau - F36 is -3e-8, below half an ulp there), so
    # that distinct keys of a run embed to one double; each sorted by position
    kind = draw(st.sampled_from(["lattice", "window", "ties"]))
    if kind == "lattice":
        lo = draw(st.integers(-30, 0))
        return lattice_comb(lo, lo + draw(st.integers(0, 40))).keys, (float(lo), 40.0)
    if kind == "ties":
        runs = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-12, 12),
                                       st.sets(st.integers(0, 2), min_size=1)),
                             max_size=10, unique_by=lambda run: run[:2]))
        keys = [(2**30 + a - t * F36, b + t * F35) for a, b, ts in runs for t in ts]
        rng = (2.0**30 - 40.0, 2.0**30 + 40.0)  # |a + b tau| < 40
        return dirac_comb(keys, rng).keys, rng
    windows = draw(st.sampled_from([cps.fibonacci_windows(), suites.MODEL_SETS["twisted_fibonacci"]]))
    window = windows[draw(st.sampled_from(sorted(windows)))]
    rng = (draw(st.floats(-40.0, 0.0)), draw(st.floats(0.0, 40.0)))
    return _decode(cps.cut_and_project(window, rng)), rng


@st.composite
def split_case_st(draw):
    model, rng = _model_set(draw)
    in_points = np.array(draw(st.lists(st.booleans(), min_size=len(model),
                                       max_size=len(model))), dtype=bool)
    points = model[in_points]
    order = draw(st.permutations(range(len(points))))
    alpha = draw(st.one_of(st.floats(0.0, 1.0), st.just(0.5), st.just(1.0)))
    return model, rng, points[list(order)], alpha


@given(split_case_st(), st.sampled_from([8, 16, combs.ATOM_BLOCK]))
@settings(max_examples=200, deadline=None)
def test_split_remainder_matches_dict_oracle(case, block):
    # blocks of 8 and 16 keys make the membership scan cross block edges
    model, rng, points, alpha = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combs, "ATOM_BLOCK", block)
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
    # nu keeps omega's order: keys of equal position stay in omega's order
    rank = {k: r for r, k in enumerate(map(tuple, model.tolist()))}
    assert [rank[k] for k in keys] == sorted(rank[k] for k in keys)
    assert np.all(np.diff(nu.positions) >= 0)
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
    omega = WeightedComb.from_weights(lattice_comb(0, 9).keys, np.full(10, 0.5), (0.0, 9.0 - 5e-10))
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
        split_pp(np.vstack([_decode(model[:5]), outside]), model, 0.5, (0.0, 50.0))
    assert err.value.offenders == outside[:20]


def test_split_finds_points_among_keys_of_equal_position():
    # F_35 tau - F_36 is below half an ulp at 2**30, so these three distinct
    # keys embed to one double
    tie = [(2**30, 0), (2**30 - 14930352, 9227465), (2**30 - 24157817, 14930352)]
    assert len(set(embed_array(*np.array(tie).T).tolist())) == 1
    for model in (tie[:2], tie[1::-1]):
        omega = WeightedComb(combs._encode(np.array(model)), np.array([0.25]),
                             np.zeros(2, np.uint8), (-math.inf, math.inf))
        for point in tie[:2]:
            nu = split_remainder(np.array([point]), omega)
            assert nu.atoms_dict() == {k: 0.75 if k == point else -0.25 for k in model}
        with pytest.raises(ContainmentError) as err:
            split_remainder(np.array([tie[2]]), omega)
        assert err.value.offenders == [tie[2]]


def test_split_remainder_on_an_empty_model_set():
    empty = lattice_comb(1, 0, 0.5)
    assert len(empty) == 0
    with pytest.raises(ContainmentError, match="^2 point") as err:
        split_remainder(np.array([[3, 0], [1, 2]]), empty)
    assert err.value.offenders == [(3, 0), (1, 2)]
    assert len(split_remainder(np.empty((0, 2), dtype=np.int64), empty)) == 0


@pytest.mark.parametrize("block", [8, 16, combs.ATOM_BLOCK])
def test_membership_marks_the_first_of_equal_keys(monkeypatch, block):
    # keys repeated in runs of one position are marked once, at the first of
    # the run; points taken in blocks of 8 and 16, in position order or not,
    # mark the same keys, and the offenders and both errors are those of one
    # search
    monkeypatch.setattr(combs, "ATOM_BLOCK", block)
    keys = [[m, 1] for m in range(20)] + [[4, 0]] * 3 + [[1, 0]] * 3
    codes = dirac_comb(keys, (-math.inf, math.inf)).codes
    in_order = _decode(codes).tolist()
    assert in_order[:3] == [[1, 0]] * 3 and in_order[6:9] == [[4, 0]] * 3

    def members(points):
        marked = combs._members(combs._encode(np.array(points)), codes)
        assert marked.dtype == bool and marked.shape == codes.shape
        return np.flatnonzero(marked).tolist()

    def first_places(points):
        return sorted(in_order.index(list(p)) for p in points)

    for points in ([[1, 0], [4, 0]], [[12, 1], [4, 0], [0, 1]],
                   [[m, 1] for m in range(20)], [[m, 1] for m in range(19, -1, -1)] + [[1, 0]]):
        assert members(points) == first_places(points)
    with pytest.raises(ContainmentError, match="^3 point") as err:
        members([[9, 0], [1, 0], [2, 0], [9, 0]])
    assert err.value.offenders == [(9, 0), (2, 0), (9, 0)]
    with pytest.raises(ValueError, match="distinct"):
        members([[4, 0], [2, 1], [4, 0]])
    with pytest.raises(ValueError, match="distinct"):
        members([[m, 1] for m in range(20)] + [[7, 1]])


@pytest.mark.parametrize("bad", [0, 8, 9, 19])
def test_coverage_check_reads_every_block(monkeypatch, bad):
    # twenty atoms in blocks of eight: the one atom outside the coverage, on
    # either side, is found in whichever block it sits
    monkeypatch.setattr(combs, "ATOM_BLOCK", 8)
    keys = lattice_comb(0, 19).keys
    level = np.zeros(20, dtype=np.uint8)
    WeightedComb(combs._encode(keys), np.array([1.0]), level, (0.0, 19.0 - 5e-10))
    for outside in (40, -5):
        moved = keys.copy()
        moved[bad, 0] = outside
        with pytest.raises(ValueError, match="^atoms outside the coverage interval$"):
            WeightedComb(combs._encode(moved), np.array([1.0]), level, (0.0, 19.0))


@pytest.mark.parametrize("block", [8, combs.ATOM_BLOCK])
def test_constructor_refuses_unsorted_codes_and_missing_levels(monkeypatch, block):
    # the kernels read codes in position order and weights as levels[level]:
    # shuffled codes made pair_correlation return an empty comb, and a level
    # index past the levels raised IndexError inside a kernel
    monkeypatch.setattr(combs, "ATOM_BLOCK", block)
    z = lattice_comb(-10, 10)
    shuffled = np.random.default_rng(1).permutation(z.codes)
    # sorted within blocks of eight, out of order only where two blocks meet
    swapped = np.concatenate([z.codes[8:16], z.codes[:8], z.codes[16:]])
    for codes in (shuffled, swapped):
        with pytest.raises(ValueError, match="^codes must be sorted by position$"):
            WeightedComb(codes, z.levels, z.level, z.coverage)
    level = np.zeros(len(z), dtype=np.uint8)
    level[-1] = 3
    with pytest.raises(ValueError, match="^level indices must be below the number of levels$"):
        WeightedComb(z.codes, z.levels, level, z.coverage)
    WeightedComb(z.codes, np.arange(4.0), level, z.coverage)  # 4 levels: index 3 exists


def test_split_rejects_repeated_points():
    omega = lattice_comb(0, 5, 0.5)
    with pytest.raises(ValueError, match="distinct"):
        split_remainder(np.array([[1, 0], [2, 0], [1, 0]]), omega)


@given(st.sampled_from([np.float32, np.float64]),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_from_weights_returns_the_input_bits(dtype, n_values, seed):
    # any bit patterns: signed zeros, NaN payloads and subnormals stay apart
    rng = np.random.default_rng(seed)
    size = np.dtype(dtype).itemsize
    pool = rng.integers(0, 256, size=(n_values, size), dtype=np.uint8).view(dtype).ravel()
    pool[: min(2, n_values)] = np.array([0.0, -0.0], dtype=dtype)[: min(2, n_values)]
    weights = np.concatenate([pool, pool[rng.integers(0, n_values, size=200)]])
    keys = lattice_comb(0, len(weights) - 1).keys
    comb = WeightedComb.from_weights(keys, weights, (0.0, float(len(weights))))
    assert comb.weights.dtype == dtype
    assert comb.weights.tobytes() == weights.tobytes()
    assert len(comb.levels) == len(np.unique(pool.view(f"V{size}")))
    assert comb.level.dtype == (np.uint8 if len(comb.levels) <= 256 else np.uint16)


@pytest.mark.parametrize("alpha", [0.0, 1.0, *np.random.default_rng(3).random(3)])
@pytest.mark.parametrize("levels", [1, 5])
def test_split_remainder_weights_are_one_minus_alpha_and_minus_alpha(alpha, levels):
    # nu's weights are bit for bit np.where(in_P, 1 - w, -w), zeros dropped,
    # w being omega's weight per atom, also when omega has several levels
    window = suites.MODEL_SETS["twisted_fibonacci"]["a"]
    model = cps.cut_and_project(window, (0.0, 300.0))
    rng = np.random.default_rng(len(model))
    if levels == 1:
        omega = dirac_comb(model, (0.0, 300.0), weight=alpha)
    else:
        w = np.asarray(alpha) * rng.integers(1, levels + 1, size=len(model))
        omega = WeightedComb.from_weights(model, w, (0.0, 300.0))
    in_p = rng.random(len(model)) < 0.5
    nu = split_remainder(model[in_p], omega)
    want = np.where(in_p, 1.0 - omega.weights, -omega.weights)
    assert np.array_equal(nu.codes, model[want != 0])
    assert nu.weights.dtype == want.dtype
    assert nu.weights.tobytes() == want[want != 0].tobytes()
