import numpy as np

from combsplit import combs, cps, suites


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

    # the four types share two windows; calibration projects nothing
    assert ranges == [(0.0, R)] * 2
    assert ctx.models["a"] is ctx.models["a_"]
    assert ctx.models["b"] is ctx.models["b_"]
    assert not ctx.models["a"].flags.writeable

    # the same context built with one projection per type
    rng = (0.0, R)
    for t, w in ctx.windows.items():
        model = cps.cut_and_project(w, rng)
        alpha = (len(ctx.tps.points[t]) / R) / cps.model_set_density(w)
        omega, nu = combs.split_pp(ctx.tps.points[t], w, alpha, rng, model)
        assert np.array_equal(ctx.models[t], model)
        assert ctx.alphas[t] == alpha
        for got, want in zip(ctx.splits[t], (omega, nu)):
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.weights, want.weights)
