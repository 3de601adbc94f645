import math

import numpy as np
import pytest

from combsplit import cps, inflate
from combsplit.cps import (
    CalibrationError,
    Interval,
    Window,
    calibrate_closures,
    cut_and_project,
    fibonacci_windows,
    fourier_module,
    model_set_density,
    twisted_fibonacci_windows,
    window_amplitude,
)
from combsplit.zroot5 import SQRT5, TAU, FourierModulePoint, QuadraticInt


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
    assert pts.tolist() == [[0, 1]]


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
            got = [tuple(p) for p in cut_and_project(w, rng).tolist()]
            assert got == expected, (w, rng)


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
    inner = {tuple(p) for p in cut_and_project(small, (0, 200))}
    outer = {tuple(p) for p in cut_and_project(large, (0, 200))}
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
    cal = calibrate_closures(tps.points, twisted_fibonacci_windows(), (0.0, 1000.0))
    assert cal.closure == (True, True)
    for t, (n_pts, n_model) in cal.counts.items():
        assert 0 < n_pts <= n_model


def test_calibration_projects_each_distinct_window_once(monkeypatch):
    tps = inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", 1000.0)
    rng = (0.0, 1000.0)
    projected = []

    def counting(window, rng):
        projected.append(window.intervals)
        return cut_and_project(window, rng)

    monkeypatch.setattr(cps, "cut_and_project", counting)
    cal = calibrate_closures(tps.points, twisted_fibonacci_windows(), rng)
    monkeypatch.undo()

    # four types, two windows: a and a_ share one, b and b_ the other
    assert len(projected) == len(set(projected)) == 2
    for t, w in cal.windows.items():
        assert cal.counts[t] == (len(tps.points[t]), len(cut_and_project(w, rng)))


def test_calibration_reports_failure():
    tps = inflate.realize_geometric(inflate.fibonacci_rule(), "a", 200.0)
    # shrink the type-a window so its own points no longer fit
    bad = {
        "a": Window([Interval(QuadraticInt(-2, 1), 0.0)]),
        "b": fibonacci_windows()["b"],
    }
    with pytest.raises(CalibrationError):
        calibrate_closures(tps.points, bad, (0.0, 200.0))


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
    assert edge_point.star().key() == (-2, 1)
    closed = fibonacci_windows()["a"]
    assert closed.contains_star(-1, -1)
    open_lo = closed.with_closure(False, True)
    assert not open_lo.contains_star(-1, -1)


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
