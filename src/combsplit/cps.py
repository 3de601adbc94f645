"""Cut-and-project machinery for the golden-ratio point module.

The scheme is (R, R, L) with L the Minkowski embedding of Z[tau], a planar
lattice of density 1/sqrt(5).  A window is a finite union of internal-space
intervals; the projected set keeps exactly the module points whose Galois
conjugate falls inside the window.  Window endpoints are usually exact
Z[tau] elements, so boundary membership is decided with integer arithmetic
and closure flags, never with float comparisons.
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
    sign_of,
)

__all__ = [
    "Interval",
    "Window",
    "ModelSetSpec",
    "CalibrationError",
    "CalibrationResult",
    "cut_and_project",
    "model_set_density",
    "fourier_module",
    "window_amplitude",
    "calibrate_closures",
    "fibonacci_windows",
    "twisted_fibonacci_windows",
]

LATTICE_DENSITY = 1.0 / SQRT5
# rows of n per cut_and_project block: a window of unit width leaves about
# 4 candidates per row, so a block's arrays stay near 128 KiB each whatever
# the range
ROW_BLOCK = 1 << 12


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

    def contains_star(self, m, n):
        """Membership of the conjugate of m + n*tau, exact on exact endpoints.

        The conjugate is (m + n) - n*tau; against an exact endpoint p + q*tau
        the comparison reduces to the sign of an integer pair.  Python ints
        give a bool; int64 arrays give a bool array, elementwise, under the
        bound of the array sign_of.
        """
        sm, sn = m + n, -n
        if isinstance(self.lo, QuadraticInt):
            s = sign_of(sm - self.lo.m, sn - self.lo.n)
            lo_ok = (s > 0) | ((s == 0) & self.lo_closed)
        else:
            v = sm + sn * TAU
            lo_ok = (v > self.lo) | ((v == self.lo) & self.lo_closed)
        if isinstance(self.hi, QuadraticInt):
            s = sign_of(sm - self.hi.m, sn - self.hi.n)
            hi_ok = (s < 0) | ((s == 0) & self.hi_closed)
        else:
            v = sm + sn * TAU
            hi_ok = (v < self.hi) | ((v == self.hi) & self.hi_closed)
        return lo_ok & hi_ok

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
        """Membership in any interval; a bool, or a bool array for arrays."""
        inside = np.zeros(np.shape(m), dtype=bool) if np.ndim(m) else False
        for iv in self.intervals:
            inside = inside | iv.contains_star(m, n)
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


@dataclass(frozen=True)
class ModelSetSpec:
    """Per-type windows of one cut-and-project family."""

    windows: dict[str, Window]

    def density(self, name: str) -> float:
        return model_set_density(self.windows[name])


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
    (N, 2) int64 array of (m, n) keys, sorted by physical position.

    The difference of the physical and the internal coordinate pins n to a
    finite band, and for each n the two linear inequalities leave an integer
    interval of m.  The solver walks the band in blocks of ROW_BLOCK rows of
    n; each block lays its candidate (n, m) pairs out as arrays and filters
    them on the range and with exact window membership, so peak memory stays
    bounded by the block, not by R.
    """
    r_lo, r_hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise ValueError("cut_and_project needs a bounded range")
    # positions of this size put 2m + n at the bound of the array sign_of
    if max(abs(r_lo), abs(r_hi)) >= SIGN_ARRAY_BOUND:
        raise ValueError(f"cut_and_project needs a range below {SIGN_ARRAY_BOUND} in magnitude")
    if not window.intervals:
        return np.empty((0, 2), dtype=np.int64)
    w_lo, w_hi = window.hull()
    if r_hi < r_lo:
        return np.empty((0, 2), dtype=np.int64)

    n_min = math.ceil((r_lo - w_hi) / SQRT5 - 1e-9)
    n_max = math.floor((r_hi - w_lo) / SQRT5 + 1e-9)
    blocks = [
        _project_rows(window, r_lo, r_hi, np.arange(n0, min(n0 + ROW_BLOCK, n_max + 1)))
        for n0 in range(n_min, n_max + 1, ROW_BLOCK)
    ]
    keys = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    order = np.argsort(keys[:, 0] + keys[:, 1] * TAU, kind="stable")
    return keys[order]


def _project_rows(
    window: Window, r_lo: float, r_hi: float, ns: np.ndarray
) -> np.ndarray:
    """Model points of the rows ns, in (n, m) order, as an (N, 2) key array."""
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
    m, n = m[keep], n[keep]
    keep = window.contains_star(m, n)
    return np.stack([m[keep], n[keep]], axis=1)


def fourier_module(k_max: float, kstar_max: float) -> list[FourierModulePoint]:
    """Module points k = (a + b*tau)/sqrt(5) with bounded value and conjugate.

    Returns every k with |k| <= k_max and |k*| <= kstar_max, sorted by |k|
    with (a, b) as the deterministic tie-break.  The zero point is always
    included.
    """
    if k_max < 0 or kstar_max < 0:
        raise ValueError("bounds must be nonnegative")
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
    counts: dict[str, tuple[int, int]]  # per type: (points checked, model points)


def calibrate_closures(
    points_by_type: dict[str, np.ndarray],
    windows: dict[str, Window],
    rng: tuple[float, float],
) -> CalibrationResult:
    """Pick endpoint closures so every generated point sits in its model set.

    Tries the four uniform closure choices, fully closed first.  Exact
    containment of the point stars decides; if no choice works, the error
    lists the offending points of the best candidate instead of patching
    the windows silently.
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
            # types that share a window share one projection of it
            model_sizes: dict[tuple[Interval, ...], int] = {}
            for t in points_by_type:
                ivs = trial[t].intervals
                if ivs not in model_sizes:
                    model_sizes[ivs] = len(cut_and_project(trial[t], rng))
            counts = {
                t: (len(pts), model_sizes[trial[t].intervals])
                for t, pts in points_by_type.items()
            }
            return CalibrationResult(trial, (lo_c, hi_c), counts)
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


def twisted_fibonacci_windows() -> dict[str, Window]:
    """Windows of the four-letter twisted chain; barred types share windows."""
    base = fibonacci_windows()
    return {"a": base["a"], "a_": base["a"], "b": base["b"], "b_": base["b"]}
