import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import combs, cps, eberlein, inflate, stochastic, suites
from combsplit.zroot5 import QuadraticInt


def test_verify_all_builds_each_system_context_once():
    # the cache keeps two contexts, and verify --suite all reads two, the
    # twisted chain's three times and then the golden chain's, at R = 1e4
    suites.system_context.cache_clear()
    suites.run_suite("all", 3)
    info = suites.system_context.cache_info()
    assert (info.maxsize, info.misses, info.hits, info.currsize) == (2, 2, 2, 2)


def test_system_context_projects_each_distinct_window_once(monkeypatch):
    R = 2000.0
    ranges = []
    project = cps.cut_and_project

    def counting(window, rng):
        ranges.append(tuple(rng))
        return project(window, rng)

    monkeypatch.setattr(cps, "cut_and_project", counting)
    # bypass the cache so this call really runs
    ctx = suites.system_context.__wrapped__("twisted_fibonacci", R)
    monkeypatch.undo()

    # the four types share two windows, projected once each
    assert ranges == [(0.0, R)] * 2
    assert ctx.models["a"] is ctx.models["a_"]
    assert ctx.models["b"] is ctx.models["b_"]
    assert not ctx.models["a"].flags.writeable
    # each omega keeps the projection itself, not a sorted copy
    for t, (omega, _) in ctx.splits.items():
        assert np.shares_memory(omega.codes, ctx.models[t])

    # the same context built with one projection per type and the exact
    # alpha, 1/2: the rule is symmetric under the bar swap
    rng, alpha = (0.0, R), 0.5
    for t, w in ctx.windows.items():
        model = cps.cut_and_project(w, rng)
        omega, nu = combs.split_pp(ctx.tps.points[t], model, alpha, rng)
        assert np.array_equal(ctx.models[t], model)
        assert ctx.alphas[t] == alpha
        for got, want in zip(ctx.splits[t], (omega, nu)):
            assert np.array_equal(got.codes, want.codes)
            assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("name,alpha", [("fibonacci", 1.0), ("twisted_fibonacci", 0.5),
                                        ("thue_morse", 0.5)],
                         ids=["fibonacci", "twisted_fibonacci", "thue_morse"])
@pytest.mark.parametrize("R", [500.0, 1e3, 1000.3, 1e4, 1.00311e5])
def test_system_context_alphas_are_exact_at_every_R(name, alpha, R):
    # alpha_t = dens(P_t) / dens(M_t) from the rule and the model sets, not
    # from the realization: the golden chain is its model set (alpha 1, nu
    # empty), the twisted chain fills half of each window's, and the doubling
    # chain half of Z (dens 1)
    ctx = suites.system_context.__wrapped__(name, R)
    assert ctx.alphas == dict.fromkeys(ctx.rule.alphabet, alpha)
    assert ctx.alphas == suites.preset_system(name)[2]
    if name == "fibonacci":
        assert all(len(nu.codes) == 0 for _, nu in ctx.splits.values())
    # every omega covers (0, R), on its type's model set
    for t, (omega, nu) in ctx.splits.items():
        assert omega.coverage == nu.coverage == (0.0, R)
        assert omega.codes is ctx.models[t] and not ctx.models[t].flags.writeable
        window = ctx.windows[t]
        if window is None:
            assert np.array_equal(ctx.models[t] >> 32, np.arange(int(R) + 1))
            assert not (ctx.models[t] & (2**32 - 1)).any()
        else:
            assert np.array_equal(ctx.models[t], cps.cut_and_project(window, (0.0, R)))


def test_only_presets_with_model_sets_split():
    with pytest.raises(ValueError, match="'random_fibonacci' has no model set"):
        suites.preset_system("random_fibonacci")
    with pytest.raises(ValueError, match="'random_fibonacci' has no model set"):
        suites.system_context.__wrapped__("random_fibonacci", 100.0)
    assert suites.preset_system("thue_morse")[1] == {"a": None, "b": None}


def test_an_irrational_alpha_is_refused(monkeypatch):
    # a type-a window of volume tau^2 would fill 1/tau^2 of its model set
    wide = cps.Window([cps.Interval(QuadraticInt(-2, 1), QuadraticInt(-1, 2))])
    monkeypatch.setitem(suites.MODEL_SETS, "fibonacci", {"a": wide, "b": wide})
    with pytest.raises(ValueError, match="alpha of type 'a' of fibonacci is irrational"):
        suites.preset_system("fibonacci")


@pytest.mark.parametrize("name", ["fibonacci", "twisted_fibonacci", "thue_morse"])
@pytest.mark.parametrize("R", [1.0, 1000.3, 20_000.0])
def test_rebuilt_realization_equals_the_realization(name, R):
    # the context keeps no point copy: tps is rebuilt from the splits, array
    # for array the realization, with its range
    ctx = suites.system_context.__wrapped__(name, R)
    want = inflate.realize_geometric(inflate.builtin_rule(name), "a", R)
    got = ctx.tps
    assert got.rng == want.rng and got.types() == want.types()
    for t in want.types():
        assert got.codes[t].dtype == np.int64 and np.array_equal(got.codes[t], want.codes[t])
        assert np.array_equal(got.points[t], want.points[t]), t
        assert ctx.counts[t] == want.count(t)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_rebuilt_points_when_a_level_weighs_zero(alpha):
    # alpha = 1 drops nu's atoms at the points, alpha = 0 those at the rest
    R = 300.0
    window = suites.MODEL_SETS["twisted_fibonacci"]["a"]
    model = cps.cut_and_project(window, (0.0, R))
    points = model[np.random.default_rng(5).random(len(model)) < 0.5]
    omega, nu = combs.split_pp(points, model, alpha, (0.0, R))
    assert np.array_equal(combs.split_points(omega, nu), points)


def test_live_context_bytes_per_model_atom():
    # The twisted context at R = 1e5 holds the model sets' codes (8 B per
    # atom, one array per window) and the level indices of the four nu (a
    # byte per atom of each of the two types on a window): 10.2 B per model
    # atom measured, against 36.2 B when it kept the realization and (m, n)
    # keys.  The bound leaves 20% for allocator and container overheads.
    suites.system_context.__wrapped__("twisted_fibonacci", 100.0)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        ctx = suites.system_context.__wrapped__("twisted_fibonacci", 1e5)
        live = tracemalloc.get_traced_memory()[0] - live
    finally:
        tracemalloc.stop()
    atoms = len(ctx.models["a"]) + len(ctx.models["b"])
    assert live / atoms <= 12.2, (live, atoms)


def test_check_serializes_its_fields_in_order():
    check = stochastic.Check("gamma(0) = p", 0.25, 2e-3, False)
    assert json.dumps(check.to_dict()) == (
        '{"name": "gamma(0) = p", "measured": 0.25, "threshold": 0.002, "passed": false}')
    report = suites.SuiteReport("s", (check,), {})
    assert report.to_dict()["checks"] == [check.to_dict()]


@given(
    st.one_of(st.sampled_from([2**10, 2**11, 2**12]), st.integers(2**10, 2**12)),
    st.one_of(st.just(32), st.integers(1, 2**13)),
)
@settings(max_examples=20, deadline=None)
def test_tm_correlations_equal_the_comb_correlations(R, r_max):
    rule = inflate.thue_morse_rule()
    tps = inflate.realize_geometric(rule, "a", float(R))
    row, n = suites._tm_occupancy(rule, float(R))
    # one bit per site, 64 to a '<u8' word, the bits past the n sites 0
    assert row.dtype == np.dtype("<u8") and len(row) == -(-n // 64)
    occupied = np.unpackbits(row.view(np.uint8), bitorder="little")
    assert np.array_equal(np.flatnonzero(occupied), tps.points["a"][:, 0])
    assert n == tps.count()
    got = suites._tm_correlations(row, n, float(R), r_max)
    assert list(got) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    for (a, b), corr in got.items():
        want = eberlein.pair_correlation(tps.comb(a), tps.comb(b), "one_sided", float(R), r_max)
        assert np.array_equal(corr.keys, want.keys)
        # bit-equal floats: repr tells -0.0 from 0.0
        assert repr(corr.weights.tolist()) == repr(want.weights.tolist())
        assert corr.coverage == want.coverage


def test_tm_correlations_need_a_tiling():
    # the occupancy row reads tile k as site k, so every tile must have length 1
    images = inflate.thue_morse_rule().images
    for lengths in ({"a": QuadraticInt(2, 0), "b": QuadraticInt(1, 0)},
                    {"a": QuadraticInt(1, 0), "b": QuadraticInt(0, 1)}):
        rule = inflate.SubstitutionRule(("a", "b"), images, lengths)
        with pytest.raises(ValueError, match="do not tile"):
            suites._tm_occupancy(rule, 64.0)


def test_tm_suite_peak_memory():
    # the realization is one int8 word and the Riesz check a window of
    # coefficients; the whole dense table at depth 20 alone took 16 MiB
    suites.run_suite("tm")
    tracemalloc.start()
    try:
        suites.suite_tm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


def test_tm_suite_makes_no_kernel_call(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called the correlation kernel")

    monkeypatch.setattr(eberlein, "eberlein_convolve", refused)
    assert suites.run_suite("tm")[0].passed
