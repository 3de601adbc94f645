"""The tracer wraps every binding of a public function, nests spans and
keeps its own counting out of them."""

import itertools

import pytest

import spans
import combsplit
from combsplit import cli, combs, cps, eberlein, inflate, stochastic, suites, zroot5

ORIGINALS = {
    "frac_phases": zroot5.frac_phases,
    "linear_combine": combs.linear_combine,
    "pair_correlation": eberlein.pair_correlation,
    "fb_scan": eberlein.fb_scan,
    "realize_geometric": inflate.realize_geometric,
    "system_context": suites.system_context,
    "cmd_split": cli.cmd_split,
    "suite_tm": suites.suite_tm,
    "sign_of": zroot5.sign_of,
}


@pytest.fixture
def tracer():
    t = spans.Tracer("test")
    t.install(combsplit)
    try:
        yield t
    finally:
        t.restore()


def golden_comb(R):
    return inflate.realize_geometric(inflate.fibonacci_rule(), "a", R).comb()


def test_every_binding_is_wrapped_and_restored():
    t = spans.Tracer("test")
    t.install(combsplit)
    try:
        bindings = {
            "frac_phases": (zroot5.frac_phases, eberlein.frac_phases),
            "linear_combine": (combs.linear_combine, stochastic.linear_combine),
            "pair_correlation": (eberlein.pair_correlation, stochastic.pair_correlation,
                                 combsplit.pair_correlation),
            "fb_scan": (eberlein.fb_scan, stochastic.fb_scan),
            "realize_geometric": (inflate.realize_geometric, stochastic.realize_geometric,
                                  combsplit.realize_geometric),
            "system_context": (suites.system_context,),
            "cmd_split": (cli.cmd_split, cli._COMMANDS["split"]),
            "suite_tm": (suites.suite_tm, suites._SUITES["tm"]),
            "sign_of": (zroot5.sign_of, cps.sign_of),
        }
        for name, bound in bindings.items():
            assert len({id(f) for f in bound}) == 1, name
            assert bound[0] is not ORIGINALS[name], name
            assert bound[0].__wrapped__ is ORIGINALS[name], name
    finally:
        t.restore()
    assert eberlein.frac_phases is ORIGINALS["frac_phases"]
    assert cli._COMMANDS["split"] is ORIGINALS["cmd_split"]
    assert stochastic.linear_combine is ORIGINALS["linear_combine"]


def test_spans_nest_and_self_time_excludes_children(tracer):
    comb = tracer._outside(golden_comb, 400.0)
    start = tracer.clock()
    tracer.call("bench.run", eberlein.pair_correlation, comb, comb, "one_sided", 300.0, 5.0)
    end = tracer.clock()
    by_name = {name: (sid, parent, s, e) for sid, parent, name, s, e in tracer.spans}
    run_id = by_name["bench.run"][0]
    corr_id = by_name["eberlein.pair_correlation"][0]
    assert by_name["eberlein.pair_correlation"][1] == run_id
    assert by_name["eberlein.convolve_sweep"][1] == corr_id
    assert by_name["combs.reflect_conjugate"][1] == corr_id

    names = ["eberlein.pair_correlation.self_s", "eberlein.convolve_sweep.calls",
             "eberlein.convolve_dense.calls", "eberlein.convolve.atoms_out",
             "trace.coverage"]
    summary = tracer.summary(start, end, names)
    children = sum(e - s for _, parent, _, s, e in tracer.spans if parent == corr_id)
    _, _, s, e = by_name["eberlein.pair_correlation"]
    assert summary["metrics"]["eberlein.pair_correlation.self_s"] == pytest.approx(e - s - children)
    assert summary["metrics"]["eberlein.convolve_sweep.calls"] == 1
    assert summary["metrics"]["eberlein.convolve_dense.calls"] == 0
    assert summary["metrics"]["eberlein.convolve.atoms_out"] > 0
    assert 0.9 < summary["metrics"]["trace.coverage"] <= 1.0


def test_integer_combs_are_labelled_dense(tracer):
    z = combs.lattice_comb(-60, 60)
    eberlein.eberlein_convolve(z, z, "symmetric", 50.0, 4.0)
    assert [name for *_, name, _, _ in tracer.spans if "convolve" in name] == \
        ["eberlein.convolve_dense"]
    assert tracer.counts["eberlein.convolve.pairs"] == sum(
        1 for x, y in itertools.product(range(-50, 51), repeat=2) if abs(x + y) <= 4)


def test_counting_is_untraced_and_kept_out_of_spans(tracer):
    before = len(tracer.spans)
    tracer._outside(eberlein.averaging_vol, "one_sided", 3.0)
    assert len(tracer.spans) == before
    assert tracer._excluded > 0.0


def test_sign_of_is_counted_not_spanned(tracer):
    cps.cut_and_project(cps.fibonacci_windows()["a"], (0.0, 50.0))
    assert tracer.counts["zroot5.sign_of.calls"] > 0
    assert not any(name.startswith("zroot5.sign_of") for *_, name, _, _ in tracer.spans)
    assert tracer.counts["cps.cut_and_project.points"] > 0


@pytest.mark.parametrize("shape,variant", [("one_sided", "both"), ("symmetric", "one")])
def test_candidate_pairs_match_brute_force(shape, variant):
    comb = golden_comb(300.0)
    mu, nu = eberlein.reflect_conjugate(comb), comb
    R, r_max = 100.0, 6.0
    lo, hi = (0.0, R) if shape == "one_sided" else (-R, R)
    nu_lo, nu_hi = (lo, hi) if variant == "both" else (lo - r_max, hi + r_max)
    px = [x for x in mu.positions if -hi - 1e-12 <= x <= -lo + 1e-12]
    py = [y for y in nu.positions if nu_lo - 1e-12 <= y <= nu_hi + 1e-12]
    brute = sum(1 for x in px for y in py if abs(x + y) <= r_max + 1e-9)
    assert spans.candidate_pairs(mu, nu, shape, R, r_max, variant) == brute


def test_unknown_metric_is_an_error(tracer):
    with pytest.raises(KeyError):
        tracer.summary(0.0, 1.0, ["eberlein.no_such_function.self_s"])
