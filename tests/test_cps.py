import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsplit import cps, inflate, suites, zroot5
from combsplit.cps import (
    CalibrationError,
    Interval,
    Window,
    calibrate_closures,
    cut_and_project,
    fibonacci_windows,
    fourier_module,
    model_set_density,
    window_amplitude,
)
from combsplit.zroot5 import (
    SIGN_ARRAY_BOUND,
    SQRT5,
    TAU,
    FourierModulePoint,
    QuadraticInt,
    _decode,
    embed_star_array,
    sign_of,
    star_sign,
)


BOX = 40  # the exhaustive scan covers |m|, |n| <= BOX


def star_in(window, m, n):
    """Membership oracle: order the conjugate against each endpoint directly."""
    star = QuadraticInt(m, n).star()

    def side(e):  # sign of star - e
        if isinstance(e, QuadraticInt):
            return (star > e) - (star < e)
        return (star.embed() > e) - (star.embed() < e)

    return any(
        (side(iv.lo) > 0 or (side(iv.lo) == 0 and iv.lo_closed))
        and (side(iv.hi) < 0 or (side(iv.hi) == 0 and iv.hi_closed))
        for iv in window.intervals
    )


def box_members(window):
    """Scan-box points whose conjugate lies in the window, by the oracle."""
    return [
        (m, n)
        for m in range(-BOX, BOX + 1)
        for n in range(-BOX, BOX + 1)
        if star_in(window, m, n)
    ]


def test_cut_and_project_single_point():
    w = Window([Interval(QuadraticInt(-1, 0), QuadraticInt(-2, 1), True, False)])
    pts = cut_and_project(w, (0, 4))
    assert pts.dtype == np.int64 and _decode(pts).tolist() == [[0, 1]]


def test_cut_and_project_empty_window():
    assert len(cut_and_project(Window([]), (0, 100))) == 0


def test_cut_and_project_matches_exhaustive_scan():
    # two-interval windows mixing exact and float endpoints; all but 0.1 sit
    # on conjugates of box points, so closures decide boundary cases
    mixed = [
        Window([
            Interval(QuadraticInt(-1, 0), QuadraticInt(-2, 1)),
            Interval(0.1, QuadraticInt(-1, 1)),
        ]),
        Window([
            Interval(-1.0, QuadraticInt(-2, 1)),
            Interval(QuadraticInt(0, 0), 1.0),
        ]),
    ]
    windows = [
        fibonacci_windows()["a"],
        fibonacci_windows()["b"],
        Window([Interval(-0.7, 0.3)]),
        Window([Interval(QuadraticInt(-1, 0), QuadraticInt(-2, 1), False, True)]),
        Window([]),
    ]
    for w in mixed:
        closures = [w.with_closure(lo, hi) for lo in (True, False) for hi in (True, False)]
        assert len({tuple(box_members(c)) for c in closures}) == 4
        windows += closures
    ranges = (
        (0, 30), (-12.5, 17.0), (-30.0, -4.0),
        (TAU, TAU), (-1.0, -1.0),  # lo == hi on the module points tau and -1
        (5.0, 2.0),  # hi < lo
    )
    box_m, box_n = (
        a.ravel() for a in np.meshgrid(np.arange(-BOX, BOX + 1), np.arange(-BOX, BOX + 1),
                                       indexing="ij")
    )
    for w in windows:
        members = box_members(w)
        inside = w.contains_star(box_m, box_n)
        assert inside.dtype == bool
        assert list(zip(box_m[inside].tolist(), box_n[inside].tolist())) == members
        assert [p for p in zip(box_m.tolist(), box_n.tolist())
                if w.contains_star(*p)] == members
        for rng in ranges:
            expected = sorted(
                (p for p in members if rng[0] <= p[0] + p[1] * TAU <= rng[1]),
                key=lambda k: k[0] + k[1] * TAU,
            )
            got = [tuple(p) for p in _decode(cut_and_project(w, rng)).tolist()]
            assert got == expected, (w, rng)


@given(st.integers(-8, 4), st.integers(1, 14), st.sampled_from([1, 2, 3, 7]),
       st.floats(-60.0, 20.0), st.floats(0.0, 80.0))
@settings(max_examples=60, deadline=None)
def test_blocks_sorted_as_they_come_equal_one_stable_sort(lo, width, block, r_lo, span):
    # windows up to 14 wide, so the position bands of neighbouring rows
    # overlap by much more than one block of 1 to 7 rows: the result is the
    # stable position sort of all rows in (n, m) order, array for array
    window = Window([Interval(QuadraticInt(lo, 0), QuadraticInt(lo + width, 0))])
    rng = (r_lo, r_lo + span)
    rows = cps._project_rows(window, *rng, np.arange(-200, 201))
    want = rows[0][np.argsort(rows[1], kind="stable")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cps, "ROW_BLOCK", block)
        got = cut_and_project(window, rng)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_cut_and_project_density():
    w = fibonacci_windows()["a"]
    pts = cut_and_project(w, (0, 100))
    assert abs(len(pts) - 100 / SQRT5) <= 2
    big = cut_and_project(w, (0, 10_000))
    assert abs(len(big) / 10_000 - model_set_density(w)) / model_set_density(w) < 0.02
    wb = fibonacci_windows()["b"]
    bigb = cut_and_project(wb, (0, 10_000))
    assert abs(len(bigb) / 10_000 - model_set_density(wb)) / model_set_density(wb) < 0.02


def test_monotonicity_in_window():
    small = fibonacci_windows()["a"]  # [tau-2, tau-1]
    large = Window([Interval(QuadraticInt(-1, 0), QuadraticInt(-1, 1))])  # [-1, tau-1]
    inner = set(cut_and_project(small, (0, 200)).tolist())
    outer = set(cut_and_project(large, (0, 200)).tolist())
    assert inner <= outer


def test_model_set_density_values():
    assert model_set_density(fibonacci_windows()["a"]) == pytest.approx(
        1 / SQRT5, abs=1e-12
    )
    assert model_set_density(fibonacci_windows()["b"]) == pytest.approx(
        (TAU - 1) / SQRT5, abs=1e-12
    )
    assert model_set_density(Window([])) == 0.0


def test_fourier_module_contents():
    pts = fourier_module(1.0, 1.0)
    keys = {(k.a, k.b) for k in pts}
    assert (0, 0) in keys
    assert (1, 0) in keys
    k10 = FourierModulePoint(1, 0)
    assert k10.value() == pytest.approx(0.4472135955, abs=1e-9)
    assert k10.star_value() == pytest.approx(-0.4472135955, abs=1e-9)
    # symmetric under negation
    assert all((-k.a, -k.b) in keys for k in pts)
    # sorted by |value|
    values = [abs(k.value()) for k in pts]
    assert values == sorted(values)


def test_window_amplitude_at_zero_and_symmetry():
    w = fibonacci_windows()["a"]
    assert window_amplitude(w, FourierModulePoint(0, 0)) == pytest.approx(
        w.volume() / SQRT5
    )
    sym = Window([Interval(-0.4, 0.4)])
    for k in fourier_module(2.0, 2.0)[:12]:
        amp = window_amplitude(sym, k)
        assert abs(amp.imag) < 1e-14


def test_window_amplitude_against_quadrature():
    w = fibonacci_windows()["a"]
    k = FourierModulePoint(1, 0)
    lo, hi = w.hull()
    y = np.linspace(lo, hi, 2**20 + 1)
    integrand = np.exp(2j * math.pi * k.star_value() * y)
    oracle = np.trapezoid(integrand, y) / SQRT5
    assert abs(window_amplitude(w, k) - oracle) < 1e-10


def test_window_amplitude_bounded_by_density():
    w = fibonacci_windows()["b"]
    bound = w.volume() / SQRT5
    for k in fourier_module(3.0, 3.0):
        assert abs(window_amplitude(w, k)) <= bound + 1e-12


def test_calibration_accepts_generated_fixed_point():
    tps = inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", 1000.0)
    cal = calibrate_closures(tps.points, suites.MODEL_SETS["twisted_fibonacci"])
    assert cal.closure == (True, True)
    for t, pts in tps.points.items():
        model = cut_and_project(cal.windows[t], (0.0, 1000.0))
        assert len(pts) > 0
        assert set(map(tuple, pts.tolist())) <= set(map(tuple, _decode(model).tolist()))


def test_calibration_projects_nothing(monkeypatch):
    tps = inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", 1000.0)

    def no_projection(window, rng):
        raise AssertionError("calibration projected a window")

    monkeypatch.setattr(cps, "cut_and_project", no_projection)
    cal = calibrate_closures(tps.points, suites.MODEL_SETS["twisted_fibonacci"])
    assert cal.closure == (True, True)
    assert set(cal.windows) == set(tps.points)


def test_calibration_reports_failure():
    tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 200.0)
    # shrink the type-a window so its own points no longer fit
    bad = {
        "a": Window([Interval(QuadraticInt(-2, 1), 0.0)]),
        "b": fibonacci_windows()["b"],
    }
    with pytest.raises(CalibrationError):
        calibrate_closures(tps.points, bad)


def test_preset_window_ends_are_stars_of_negative_points():
    # the one module point whose star is an end e is e* itself: -1, -tau and
    # -tau^2, all below 0, so on [0, R] each closure choice gives the same
    # model sets and the presets need none chosen
    windows = [*fibonacci_windows().values(), *suites.MODEL_SETS["twisted_fibonacci"].values()]
    ends = {e for w in windows for iv in w.intervals for e in (iv.lo, iv.hi)}
    stars = {e.star() for e in ends}
    assert stars == {QuadraticInt(-1, 0), QuadraticInt(0, -1), QuadraticInt(-1, -1)}
    assert all(x < 0 for x in stars)
    for w in windows:
        closed = cut_and_project(w, (0.0, 1000.0))
        for closure in ((True, False), (False, True), (False, False)):
            assert np.array_equal(cut_and_project(w.with_closure(*closure), (0.0, 1000.0)), closed)


def test_window_validation():
    with pytest.raises(ValueError):
        Window([Interval(0.0, 1.0), Interval(0.5, 2.0)])
    with pytest.raises(ValueError):
        Window([Interval(1.0, 0.5)])
    # touching endpoints need an open side
    Window([Interval(0.0, 1.0, True, False), Interval(1.0, 2.0)])
    with pytest.raises(ValueError):
        Window([Interval(0.0, 1.0), Interval(1.0, 2.0)])


def test_exact_boundary_membership():
    # star of -1 - tau is exactly tau - 2, the left edge of the type-a window
    edge_point = QuadraticInt(-1, -1)
    assert (edge_point.star().m, edge_point.star().n) == (-2, 1)
    closed = fibonacci_windows()["a"]
    assert closed.contains_star(-1, -1)
    open_lo = closed.with_closure(False, True)
    assert not open_lo.contains_star(-1, -1)


# tau - 2, tau - 1 and -1: every end of the preset windows
PRESET_ENDS = (QuadraticInt(-2, 1), QuadraticInt(-1, 1), QuadraticInt(-1, 0))


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@st.composite
def near_end_keys(draw, e):
    """A key m + n*tau whose conjugate is e plus up to three Fibonacci near
    zeros F_k*tau - F_{k+1} = -(1 - tau)^k (the near-integers (1 - F_{k+1},
    F_k) shifted from 1 to e), 32 <= k <= 43, so within 3 tau^-32 < 2^-20 of
    e; with no term it is the exact hit e*."""
    y = e
    for s, k in draw(st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(32, 43)),
                              max_size=3)):
        y = y + QuadraticInt(-fibonacci(k + 1), fibonacci(k)) * s
    x = y.star()  # conjugation is an involution: x* = y
    return x.m, x.n


def within_array_bound(m, n, e):
    # the pairs (m + n - p, -n - q) that the array sign_of takes
    a, b = m + n - e.m, -n - e.n
    return max(abs(b), abs(2 * a + b)) < SIGN_ARRAY_BOUND


def key_arrays(keys):
    return (np.array([m for m, _ in keys], dtype=np.int64),
            np.array([n for _, n in keys], dtype=np.int64))


@st.composite
def keys_near_a_preset_end(draw):
    """A preset end and keys near it, beside keys anywhere in the int64 box
    of the array bound, all within the bound for every preset end."""
    e = draw(st.sampled_from(PRESET_ENDS))
    box = st.integers(-SIGN_ARRAY_BOUND, SIGN_ARRAY_BOUND)
    keys = draw(st.lists(near_end_keys(e), min_size=1, max_size=20))
    keys += draw(st.lists(st.tuples(box, box), max_size=20))
    keys = [k for k in keys if all(within_array_bound(*k, f) for f in PRESET_ENDS)]
    return e, draw(st.permutations(keys))


@given(keys_near_a_preset_end())
def test_star_sign_is_the_exact_sign_near_the_preset_ends(drawn):
    e, keys = drawn
    m, n = key_arrays(keys)
    got = star_sign(m, n, embed_star_array(m, n), e)
    assert got.tolist() == [sign_of(m + n - e.m, -n - e.n) for m, n in keys]


@given(keys_near_a_preset_end())
def test_array_membership_is_exact_near_the_preset_ends(drawn):
    _, keys = drawn
    m, n = key_arrays(keys)
    for w in (fibonacci_windows()["a"], fibonacci_windows()["b"]):
        for closed in ((True, True), (False, False), (True, False), (False, True)):
            trial = w.with_closure(*closed)
            assert trial.contains_star(m, n).tolist() == [star_in(trial, *k) for k in keys]


@pytest.mark.parametrize("keys", [
    [(2**30, 0)],  # far above every end: floats alone would decide
    [(0, 0), (2**29, 0)],  # 2(m + n - p) - n - q = 2^30 + 1 for tau - 1
    [(0, 0), (0, -2**30 - 1)],  # |n + q| = 2^30 for tau - 1
    [(2**29, -2**29), (-2**29 + 5, 2**29 - 7)],  # past the float filter's bound, inside sign_of's
    [(2**28, 0), (-2**28, 1), (0, 0)],  # inside both: the float filter decides
])
def test_star_sign_keeps_the_bound_of_the_array_sign_of(keys):
    e = QuadraticInt(-1, 1)
    m, n = key_arrays(keys)
    try:
        want = sign_of(m + n - e.m, -n - e.n)
    except ValueError:
        with pytest.raises(ValueError, match="2m \\+ n"):
            star_sign(m, n, embed_star_array(m, n), e)
        with pytest.raises(ValueError, match="2m \\+ n"):
            fibonacci_windows()["a"].contains_star(m, n)
    else:
        assert star_sign(m, n, embed_star_array(m, n), e).tolist() == want.tolist()


def test_only_keys_in_the_band_take_exact_signs(monkeypatch):
    entries = []

    def counted(m, n):
        entries.append(len(m))
        return sign_of(m, n)

    monkeypatch.setattr(zroot5, "sign_of", counted)
    w = fibonacci_windows()["a"]
    assert len(cut_and_project(w, (0.0, 1e4))) > 4000
    assert entries and sum(entries) == 0  # every conjugate is far from both ends
    entries.clear()
    # the hits -tau^2 and -tau of the ends tau - 2 and tau - 1, one for each
    codes = cut_and_project(w, (-5.0, 5.0))
    assert sum(entries) == 2
    assert {(-1, -1), (0, -1)} <= set(map(tuple, _decode(codes).tolist()))


def test_cut_and_project_rejects_unbounded():
    with pytest.raises(ValueError):
        cut_and_project(fibonacci_windows()["a"], (0, math.inf))

    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"window.{name} read before the range check")

    for rng in ((0.0, math.nan), (math.nan, 10.0), (-math.inf, 10.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="bounded range"):
            cut_and_project(Untouchable(), rng)
    # past the bound of exact array membership the range is refused up front
    for rng in ((0.0, 2.0**30), (-2.0**30, 0.0), (0.0, 1e300)):
        with pytest.raises(ValueError, match="below"):
            cut_and_project(Untouchable(), rng)
    assert len(cut_and_project(fibonacci_windows()["a"], (1e9, 1e9 + 50))) > 0


def test_cut_and_project_checks_points_budget(monkeypatch):
    window = fibonacci_windows()["a"]
    per_length = model_set_density(window)
    budget = cps.MAX_POINTS
    monkeypatch.setattr(cps, "MAX_POINTS", 1000)
    assert 950 <= len(cut_and_project(window, (0.0, 990.0 / per_length))) <= 1000

    def no_rows(*args):
        raise AssertionError("projected rows over the points budget")

    monkeypatch.setattr(cps, "_project_rows", no_rows)
    with pytest.raises(ValueError, match="budget of MAX_POINTS = 1000 points"):
        cut_and_project(window, (0.0, 1010.0 / per_length))
    monkeypatch.setattr(cps, "MAX_POINTS", budget)
    with pytest.raises(ValueError, match="MAX_POINTS"):
        cut_and_project(window, (-1e9, 1e9))


def test_cut_and_project_releases_its_row_blocks_before_sorting():
    # How much the tracemalloc peak above live grows per added model point
    # from R = 4e4 to 2e5 (17889 and 89443 points; ROW_BLOCK rows cancel).
    # The result's keys take 16 B per point; holding the row blocks through
    # the concatenation and the position sort took 43 B per point.
    window = suites.MODEL_SETS["twisted_fibonacci"]["a"]
    peaks = []
    for R in (4e4, 2e5):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            count = len(cut_and_project(window, (0.0, R)))
            peaks.append((count, tracemalloc.get_traced_memory()[1] - live))
        finally:
            tracemalloc.stop()
    (n0, peak0), (n1, peak1) = peaks
    assert (peak1 - peak0) / (n1 - n0) <= 32, peaks


def test_fourier_module_checks_its_estimated_count(monkeypatch):
    # about 4 sqrt(5) k_max kstar_max points: 80.5 estimated at (3, 3) and
    # 44,721.4 at (100, 50); a bound over MAX_POINTS is refused first
    assert len(fourier_module(3.0, 3.0)) == 83
    assert len(fourier_module(100.0, 50.0)) == 44_721
    monkeypatch.setattr(cps, "MAX_POINTS", 44_000)
    with pytest.raises(ValueError, match="the Fourier module with"):
        fourier_module(100.0, 50.0)
    assert len(fourier_module(3.0, 3.0)) == 83


def test_fourier_module_charges_each_point_its_cost(monkeypatch):
    # a module point takes MODULE_POINT_UNITS of the budget's points, so bounds
    # whose estimate is a hair over MAX_POINTS / MODULE_POINT_UNITS (about
    # 6e5 module points) are refused before any point is built
    side = math.sqrt(cps.MAX_POINTS / (cps.MODULE_POINT_UNITS * 4 * SQRT5))
    assert 5e5 < 4 * SQRT5 * side * side < 7e5

    def refused(*args):
        raise AssertionError("built a module point")

    with monkeypatch.context() as patch:
        patch.setattr(cps, "FourierModulePoint", refused)
        with pytest.raises(ValueError, match=f"{cps.MODULE_POINT_UNITS} budget points a module"):
            fourier_module(side * 1.001, side)
    # the same charge at a small budget: 80.5 estimated points at (3, 3)
    monkeypatch.setattr(cps, "MAX_POINTS", 81 * cps.MODULE_POINT_UNITS)
    assert len(fourier_module(3.0, 3.0)) == 83
    monkeypatch.setattr(cps, "MAX_POINTS", 80 * cps.MODULE_POINT_UNITS)
    with pytest.raises(ValueError, match="the Fourier module with"):
        fourier_module(3.0, 3.0)
