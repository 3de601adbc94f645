"""Cut-and-project machinery for the golden-ratio point module.

The scheme is (R, R, L) with L the Minkowski embedding of Z[tau], a planar
lattice of density 1/sqrt(5).  A window is a finite union of internal-space
intervals; the projected set keeps exactly the module points whose Galois
conjugate falls inside the window.  Window endpoints are usually exact
Z[tau] elements, so membership is exact: a double decides it only where a
proven error band separates the conjugate from the endpoint, and integer
arithmetic with closure flags decides the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .zroot5 import (
    SIGN_ARRAY_BOUND,
    SQRT5,
    TAU,
    TAU_STAR,
    FourierModulePoint,
    QuadraticInt,
    _codes,
    embed_star_array,
    sign_of,
    star_sign,
)

__all__ = [
    "Interval",
    "Window",
    "CalibrationError",
    "CalibrationResult",
    "cut_and_project",
    "model_set_density",
    "fourier_module",
    "window_amplitude",
    "calibrate_closures",
    "fibonacci_windows",
    "MAX_POINTS",
    "check_points_budget",
]

LATTICE_DENSITY = 1.0 / SQRT5
# rows of n per cut_and_project block: a window of unit width leaves about
# 4 candidates per row, so a block's arrays stay near 128 KiB each whatever
# the range
ROW_BLOCK = 1 << 12

# The most points a realization, a projection or a lattice gas may hold:
# 5e7 points are 0.4 GB of int64 key codes.  Requests above it fail before
# anything is allocated.
MAX_POINTS = 50_000_000
# A Fourier module point costs this many 8-byte points of the budget: carried
# through spectra.pp_intensity it took about 670 B (diffract --system
# fibonacci --R 100 with 44,721, 89,443 and 178,885 module points peaked at
# 63.5, 92.1 and 148.9 MiB against 33.6 MiB for an import, 2-core x86
# machine), so the budget admits about 6e5 module points.
MODULE_POINT_UNITS = 84


def check_points_budget(count: float, what: str) -> None:
    """Raise ValueError when about count points would exceed MAX_POINTS."""
    if not count <= MAX_POINTS:
        raise ValueError(
            f"{what} needs about {count:.3g} points, over the budget of "
            f"MAX_POINTS = {MAX_POINTS} points"
        )


class CalibrationError(ValueError):
    """No closure choice makes the generated points fit their windows."""


@dataclass(frozen=True)
class Interval:
    """One internal-space interval with per-endpoint closure flags."""

    lo: QuadraticInt | float
    hi: QuadraticInt | float
    lo_closed: bool = True
    hi_closed: bool = True

    def lo_value(self) -> float:
        return self.lo.embed() if isinstance(self.lo, QuadraticInt) else float(self.lo)

    def hi_value(self) -> float:
        return self.hi.embed() if isinstance(self.hi, QuadraticInt) else float(self.hi)

    def volume(self) -> float:
        return self.hi_value() - self.lo_value()

    def with_closure(self, lo_closed: bool, hi_closed: bool) -> "Interval":
        return Interval(self.lo, self.hi, lo_closed, hi_closed)


class Window:
    """A finite union of disjoint internal-space intervals."""

    def __init__(self, intervals: Sequence[Interval]):
        ivs = sorted(intervals, key=lambda iv: iv.lo_value())
        for iv in ivs:
            if iv.volume() < 0:
                raise ValueError("interval with negative volume")
        for left, right in zip(ivs, ivs[1:]):
            if left.hi_value() > right.lo_value():
                raise ValueError("window intervals overlap")
            if (
                left.hi_value() == right.lo_value()
                and left.hi_closed
                and right.lo_closed
            ):
                raise ValueError("window intervals touch with both endpoints closed")
        self.intervals: tuple[Interval, ...] = tuple(ivs)

    def volume(self) -> float:
        return sum(iv.volume() for iv in self.intervals)

    def hull(self) -> tuple[float, float]:
        if not self.intervals:
            return (0.0, 0.0)
        return (self.intervals[0].lo_value(), self.intervals[-1].hi_value())

    def contains_star(self, m, n):
        """Whether the conjugate of m + n*tau lies in the window: a bool for
        Python ints, a bool array for int64 arrays, elementwise.

        The conjugate is (m + n) - n*tau, so against an exact endpoint p +
        q*tau the comparison is the sign of (m + n - p) + (-n - q)*tau.  For
        Python ints sign_of gives it.  For arrays zroot5.star_sign does, from
        the conjugates' doubles, formed once for all intervals: floats decide
        outside a proven band about each endpoint and sign_of inside it, with
        the same results and under the same bound as sign_of alone.  A float
        endpoint is compared with the double (m + n) - n*TAU.
        """
        if not (np.ndim(m) or np.ndim(n)):
            return any(_inside(iv, m, n, None) for iv in self.intervals)
        m, n = np.broadcast_arrays(np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64))
        star = embed_star_array(m, n)
        inside = np.zeros(m.shape, dtype=bool)
        for iv in self.intervals:
            inside |= _inside(iv, m, n, star)
        return inside

    def with_closure(self, lo_closed: bool, hi_closed: bool) -> "Window":
        return Window([iv.with_closure(lo_closed, hi_closed) for iv in self.intervals])

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{'[' if iv.lo_closed else '('}{iv.lo_value():.6g}, "
            f"{iv.hi_value():.6g}{']' if iv.hi_closed else ')'}"
            for iv in self.intervals
        )
        return f"Window({parts})"


def _inside(iv: Interval, m, n, star):
    """Whether the conjugates of m + n*tau lie in iv, given the doubles star
    of array conjugates, or None for Python ints."""
    lo, hi = _star_minus(m, n, star, iv.lo), _star_minus(m, n, star, iv.hi)
    return (lo >= 0 if iv.lo_closed else lo > 0) & (hi <= 0 if iv.hi_closed else hi < 0)


def _star_minus(m, n, star, end):
    """A number, or array, with the sign of the conjugate of m + n*tau minus
    end: exact for an exact end, the double's for a float one."""
    if not isinstance(end, QuadraticInt):
        # finite doubles differ by a nonzero double, so this sign is the comparison's
        return (m + n) + (-n) * TAU - end
    if star is None:
        return sign_of(m + n - end.m, -n - end.n)
    return star_sign(m, n, star, end)


def model_set_density(window: Window) -> float:
    """Density of the projected set: window volume times lattice density."""
    return window.volume() * LATTICE_DENSITY


def cut_and_project(window: Window, rng: tuple[float, float]) -> np.ndarray:
    """All module points in the physical range whose conjugate is in the window.

    Parameters
    ----------
    window : Window
        Bounded internal-space acceptance region.
    rng : (lo, hi)
        Physical interval; both range and window must be bounded.

    Returns
    -------
    (N,) int64 array of the key codes (zroot5._codes) of the points (m, n),
    sorted by physical position.

    The difference of the physical and the internal coordinate pins n to a
    finite band, and for each n the two linear inequalities leave an integer
    interval of m.  The solver walks the band in blocks of ROW_BLOCK rows of
    n; each block lays its candidate (n, m) pairs out as arrays and filters
    them on the range and with exact window membership.  A row's points lie
    in a band of positions that moves up with n, so each block is sorted
    with the points that earlier blocks left below the next band, and only
    the result spans R.
    """
    r_lo, r_hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise ValueError("cut_and_project needs a bounded range")
    # positions of this size put 2m + n at the bound of the array sign_of
    if max(abs(r_lo), abs(r_hi)) >= SIGN_ARRAY_BOUND:
        raise ValueError(f"cut_and_project needs a range below {SIGN_ARRAY_BOUND} in magnitude")
    if not window.intervals or r_hi < r_lo:
        return np.empty(0, dtype=np.int64)
    w_lo, w_hi = window.hull()
    check_points_budget((r_hi - r_lo) * model_set_density(window), f"projecting [{r_lo:g}, {r_hi:g}]")

    n_min = math.ceil((r_lo - w_hi) / SQRT5 - 1e-9)
    n_max = math.floor((r_hi - w_lo) / SQRT5 + 1e-9)
    done, codes, x = [], np.empty(0, dtype=np.int64), np.empty(0)
    for n0 in range(n_min, n_max + 1, ROW_BLOCK):
        ns = np.arange(n0, min(n0 + ROW_BLOCK, n_max + 1))
        c, v = _project_rows(window, r_lo, r_hi, ns)
        codes, x = np.concatenate([codes, c]), np.concatenate([x, v])
        order = np.argsort(x, kind="stable")
        codes, x = codes[order], x[order]
        # a point of row n lies at its conjugate, at least w_lo, plus n*sqrt(5)
        # (to 2**-22 below 2**30): the points below this bound precede every
        # later row's, so they are in their final order, the global stable one
        final = np.searchsorted(x, w_lo + (n0 + ROW_BLOCK) * SQRT5 - 1e-6)
        done.append(codes[:final])
        codes, x = codes[final:], x[final:]
    return np.concatenate([*done, codes])


def _project_rows(
    window: Window, r_lo: float, r_hi: float, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Model points of the rows ns, in (n, m) order: their codes and positions."""
    w_lo, w_hi = window.hull()
    m_lo = np.maximum(r_lo - ns * TAU, w_lo - ns * TAU_STAR)
    m_hi = np.minimum(r_hi - ns * TAU, w_hi - ns * TAU_STAR)
    # one integer of slack on each side; the exact filters below trim it
    first = np.ceil(m_lo - 1e-9).astype(np.int64) - 1
    counts = np.maximum(np.floor(m_hi + 1e-9).astype(np.int64) + 2 - first, 0)
    n = np.repeat(ns, counts)
    row_start = np.cumsum(counts) - counts
    m = np.repeat(first - row_start, counts) + np.arange(len(n))
    v = m + n * TAU
    keep = (v >= r_lo) & (v <= r_hi)
    m, n, v = m[keep], n[keep], v[keep]
    keep = window.contains_star(m, n)
    return _codes(m[keep], n[keep]), v[keep]


def fourier_module(k_max: float, kstar_max: float) -> list[FourierModulePoint]:
    """Module points k = (a + b*tau)/sqrt(5) with bounded value and conjugate.

    Returns every k with |k| <= k_max and |k*| <= kstar_max, sorted by |k|
    with (a, b) as the deterministic tie-break.  The zero point is always
    included.  Bounds whose estimated count 4*sqrt(5)*k_max*kstar_max,
    MODULE_POINT_UNITS budget points each, exceeds MAX_POINTS raise
    ValueError before any point is made.
    """
    if k_max < 0 or kstar_max < 0:
        raise ValueError("bounds must be nonnegative")
    # the module's points lie at density sqrt(5) in the (k, k*) plane
    check_points_budget(4 * SQRT5 * k_max * kstar_max * MODULE_POINT_UNITS,
                        f"the Fourier module with |k| <= {k_max:g}, |k*| <= {kstar_max:g} "
                        f"({MODULE_POINT_UNITS} budget points a module point)")
    pts: list[FourierModulePoint] = []
    v_bound = k_max * SQRT5
    s_bound = kstar_max * SQRT5
    b_lim = math.floor((v_bound + s_bound) / SQRT5 + 1e-9)
    for b in range(-b_lim, b_lim + 1):
        a_lo = max(-v_bound - b * TAU, -s_bound - b * TAU_STAR)
        a_hi = min(v_bound - b * TAU, s_bound - b * TAU_STAR)
        for a in range(math.ceil(a_lo - 1e-9) - 1, math.floor(a_hi + 1e-9) + 2):
            k = FourierModulePoint(a, b)
            if abs(k.value()) <= k_max + 1e-12 and abs(k.star_value()) <= kstar_max + 1e-12:
                pts.append(k)
    pts.sort(key=lambda k: (abs(k.value()), k.a, k.b))
    return pts


def window_amplitude(window: Window, k: FourierModulePoint) -> complex:
    """Fourier-Bohr amplitude of the model-set comb of the window.

    Closed form per interval of (1/sqrt(5)) * integral over the window of
    exp(2 pi i k* y) dy; the k* = 0 case degenerates to the window volume
    scaled by the lattice density.
    """
    ks = k.star_value()
    if ks == 0.0:
        return complex(window.volume() * LATTICE_DENSITY)
    total = 0.0 + 0.0j
    two_pi_iks = 2j * math.pi * ks
    for iv in window.intervals:
        u, v = iv.lo_value(), iv.hi_value()
        total += (np.exp(two_pi_iks * v) - np.exp(two_pi_iks * u)) / two_pi_iks
    return complex(total * LATTICE_DENSITY)


@dataclass(frozen=True)
class CalibrationResult:
    windows: dict[str, Window]
    closure: tuple[bool, bool]


def calibrate_closures(
    points_by_type: dict[str, np.ndarray],
    windows: dict[str, Window],
) -> CalibrationResult:
    """Pick endpoint closures so every generated point sits in its model set.

    Tries the four uniform closure choices, fully closed first.  Exact
    containment of the point stars decides, so nothing is projected; if no
    choice works, the error lists the offending points of the best
    candidate instead of patching the windows silently.
    """
    choices = [(True, True), (True, False), (False, True), (False, False)]
    best_violations: list[tuple[str, int, int]] | None = None
    for lo_c, hi_c in choices:
        trial = {t: w.with_closure(lo_c, hi_c) for t, w in windows.items()}
        violations: list[tuple[str, int, int]] = []
        for t, pts in points_by_type.items():
            pts = np.asarray(pts, dtype=np.int64).reshape(-1, 2)
            outside = ~trial[t].contains_star(pts[:, 0], pts[:, 1])
            violations += [(t, m, n) for m, n in pts[outside].tolist()]
        if not violations:
            return CalibrationResult(trial, (lo_c, hi_c))
        if best_violations is None or len(violations) < len(best_violations):
            best_violations = violations
    assert best_violations is not None
    sample = ", ".join(f"{t}:({m},{n})" for t, m, n in best_violations[:8])
    raise CalibrationError(
        f"{len(best_violations)} point(s) escape their windows under every "
        f"closure choice; e.g. {sample}"
    )


def fibonacci_windows() -> dict[str, Window]:
    """Acceptance windows of the two-letter golden-ratio chain."""
    w_a = Window([Interval(QuadraticInt(-2, 1), QuadraticInt(-1, 1))])
    w_b = Window([Interval(QuadraticInt(-1, 0), QuadraticInt(-2, 1))])
    return {"a": w_a, "b": w_b}
