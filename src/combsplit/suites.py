"""Registered verification suites with pinned parameters and thresholds.

Each suite runs a handful of checks at fixed sizes and returns measured
values alongside the thresholds; the CLI `verify` command and the
acceptance tests both route through here, so there is a single source of
truth for what counts as passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import combs, cps, eberlein, inflate, spectra, stochastic
from .stochastic import Check, RngSpec
from .zroot5 import SQRT5, TAU, FourierModulePoint

__all__ = [
    "SuiteReport",
    "SystemContext",
    "system_context",
    "preset_module_points",
    "preset_nonmodule_points",
    "preset_k_points",
    "run_suite",
    "suite_names",
]

# the finite stand-in for "all k": twenty module points plus five
# irrational wave numbers that the module misses
PRESET_MODULE_COUNT = 20
PRESET_NONMODULE = (
    math.sqrt(2) / 3,
    math.sqrt(3) / 2,
    math.pi / 7,
    math.e / 9,
    math.log(2),
)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]
    details: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "details": self.details,
        }


def preset_module_points(count: int = PRESET_MODULE_COUNT) -> list[FourierModulePoint]:
    """The smallest positive module points with |k| <= 3 and |k*| <= 3."""
    pts = [k for k in cps.fourier_module(3.0, 3.0) if k.value() > 1e-12]
    return pts[:count]


def preset_nonmodule_points() -> list[float]:
    return list(PRESET_NONMODULE)


def preset_k_points() -> list:
    return preset_module_points() + preset_nonmodule_points()


@dataclass(frozen=True)
class SystemContext:
    """One generated system with calibrated windows and its splitting."""

    rule: inflate.SubstitutionRule
    tps: inflate.TypedPointSet
    windows: dict[str, cps.Window] | None
    models: dict[str, np.ndarray] | None
    alphas: dict[str, float]
    splits: dict[str, tuple[combs.WeightedComb, combs.WeightedComb]]


@lru_cache(maxsize=8)
def system_context(name: str, R: float) -> SystemContext:
    """Generate a preset system on [0, R], calibrate, and split every type.

    Splitting weights come from measured densities over the exact model-set
    densities; for the lattice-based doubling chain the periodic part is
    half the integer comb directly.  R must be positive, for every system;
    otherwise ValueError is raised.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R!r}")
    rule = inflate.builtin_rule(name)
    tps = inflate.realize_geometric(rule, "a", R)
    rng = (0.0, R)
    if name == "thue_morse":
        half_lattice = combs.lattice_comb(0, int(math.floor(R)), 0.5)
        splits = {
            t: (half_lattice, combs.split_remainder(tps.points[t], half_lattice))
            for t in rule.alphabet
        }
        alphas = {t: 0.5 for t in rule.alphabet}
        return SystemContext(rule, tps, None, None, alphas, splits)

    preset_windows = (
        cps.fibonacci_windows() if name == "fibonacci"
        else cps.twisted_fibonacci_windows()
    )
    cal_tps = inflate.realize_geometric(rule, "a", min(R, 1000.0))
    cal = cps.calibrate_closures(cal_tps.points, preset_windows)
    # types that share a window share one read-only projection of it
    projected: dict[tuple[cps.Interval, ...], np.ndarray] = {}
    for w in cal.windows.values():
        if w.intervals not in projected:
            projected[w.intervals] = cps.cut_and_project(w, rng)
            projected[w.intervals].setflags(write=False)
    models = {t: projected[w.intervals] for t, w in cal.windows.items()}
    alphas = {
        t: (len(tps.points[t]) / R) / cps.model_set_density(cal.windows[t])
        for t in rule.alphabet
    }
    splits = {
        t: combs.split_pp(tps.points[t], cal.windows[t], alphas[t], rng, models[t])
        for t in rule.alphabet
    }
    return SystemContext(rule, tps, cal.windows, models, alphas, splits)


def suite_eberlein_exact(seed: int | None = None) -> SuiteReport:
    """Exact counting oracle for the restricted lattice self-convolution."""
    R, r_max = 100, 20
    z = combs.lattice_comb(-R, R)
    g = eberlein.eberlein_convolve(z, z, "symmetric", float(R), r_max, "both")
    worst = max(
        abs(complex(g.atom((m, 0))) - (2 * R + 1 - abs(m)) / (2 * R))
        for m in range(-r_max, r_max + 1)
    )
    checks = (
        Check("lattice convolution atoms exact", worst, 0.0, worst <= 0.0),
    )
    return SuiteReport("eberlein_exact", checks, {"R": R, "r_max": r_max})


def suite_tm(seed: int | None = None) -> SuiteReport:
    """Typed pair correlations of the doubling chain against the closed form,
    the recursion against the brute-force oracle, and the cosine-product
    coefficients against the recursion in exact arithmetic."""
    n_letters = 2**20
    brute = spectra.tm_eta_bruteforce(64, n_letters)
    recursion = spectra.tm_eta(64)
    rec_err = float(np.abs(recursion.as_floats() - brute).max())

    tps = inflate.realize_geometric(inflate.thue_morse_rule(), "a", float(n_letters))
    worst_atom = 0.0
    for a in ("a", "b"):
        for b in ("a", "b"):
            g = eberlein.pair_correlation(
                tps.comb(a), tps.comb(b), "one_sided", float(n_letters), 32
            )
            sign = 1.0 if a == b else -1.0
            for m in range(-32, 33):
                want = 0.25 * (1.0 + sign * brute[abs(m)])
                worst_atom = max(worst_atom, abs(complex(g.atom((m, 0))) - want))

    # wall time stays out of the report so reruns are byte-identical; the
    # acceptance gate asserts the runtime budget separately
    riesz = spectra.riesz_coefficients(20)
    riesz_err = max(
        abs(riesz.coefficient(m) - recursion[m]) for m in range(0, 9)
    )
    checks = (
        Check("pair correlation vs closed form, |m|<=32", worst_atom, 2e-3,
              worst_atom <= 2e-3),
        Check("recursion vs brute force, m<=64", rec_err, 2e-3, rec_err <= 2e-3),
        Check("riesz depth-20 vs recursion, |m|<=8", float(riesz_err),
              1e-5, riesz_err <= Fraction(1, 100000)),
    )
    return SuiteReport("tm", checks, {"n_letters": n_letters})


def suite_halfdensity(seed: int | None = None) -> SuiteReport:
    """Each twisted type fills half of its model set, by counting."""
    R = 10_000.0
    ctx = system_context("twisted_fibonacci", R)
    ratios = {
        t: len(ctx.tps.points[t]) / len(ctx.models[t]) for t in ctx.rule.alphabet
    }
    worst = max(abs(r - 0.5) for r in ratios.values())
    checks = (
        Check("max |count ratio - 1/2| over types", worst, 0.01, worst <= 0.01),
    )
    return SuiteReport(
        "halfdensity",
        checks,
        {"R": R, "ratios": ratios, "alphas": ctx.alphas},
    )


def suite_nullfb(seed: int | None = None) -> SuiteReport:
    """The remainder comb of the twisted type-a splitting has no visible
    FB amplitude on the 25-point preset, and shrinks with R."""
    R = 10_000.0
    ctx = system_context("twisted_fibonacci", R)
    _, nu_a = ctx.splits["a"]
    ks = preset_k_points()
    rows = eberlein.fb_scan(nu_a, ks, eberlein.AveragingSpec("one_sided", (100.0, R)))
    max_small = max(abs(row.value) for row in rows if row.R == 100.0)
    max_large = max(abs(row.value) for row in rows if row.R == R)
    checks = (
        Check("max |c_nu(k)| over preset at R=1e4", max_large, 0.05,
              max_large <= 0.05),
        Check("R=1e4 value below R=1e2 value", max_large, max_small,
              max_large < max_small),
    )
    return SuiteReport(
        "nullfb", checks, {"R": R, "preset_size": len(ks), "max_R100": max_small}
    )


def suite_orthogonality(seed: int | None = None) -> SuiteReport:
    """Finite cross correlations of the twisted type-a splitting vanish."""
    R, r_max = 10_000.0, 20.0
    ctx = system_context("twisted_fibonacci", R)
    omega_a, nu_a = ctx.splits["a"]
    spec = eberlein.AveragingSpec("one_sided", (100.0, 1000.0, R))
    rows = eberlein.orthogonality_report(omega_a, nu_a, spec, r_max)
    final = rows[-1]
    sup = max(final.sup_omega_nu, final.sup_nu_omega)
    first = max(rows[0].sup_omega_nu, rows[0].sup_nu_omega)
    checks = (
        Check("cross-term sup at R=1e4", sup, 0.02, sup <= 0.02),
        Check("smaller than at R=1e2", sup, first, sup < first),
    )
    details = {
        "rows": [
            {"R": r.R, "sup_omega_nu": r.sup_omega_nu, "sup_nu_omega": r.sup_nu_omega}
            for r in rows
        ]
    }
    return SuiteReport("orthogonality", checks, details)


def suite_phase(seed: int | None = None) -> SuiteReport:
    """Model-set FB coefficients match the window transform (consistent
    phase), for ten module points of small internal norm."""
    R = 10_000.0
    ctx = system_context("fibonacci", R)
    window = ctx.windows["a"]
    comb = combs.dirac_comb(ctx.models["a"], (0.0, R))
    ks = [k for k in cps.fourier_module(8.0, 2.0) if k.value() > 1e-12][:10]
    worst = max(
        abs(
            eberlein.fb_coefficient(comb, k, "one_sided", R)
            - cps.window_amplitude(window, k)
        )
        for k in ks
    )
    checks = (
        Check("max |c(k) - amplitude(k)| over 10 points", worst, 0.01,
              worst <= 0.01),
    )
    return SuiteReport("phase", checks, {"R": R})


def suite_bernoulli(seed: int | None = None) -> SuiteReport:
    """Lattice-gas correlation atoms and splitting at one million sites."""
    rng = RngSpec(42 if seed is None else seed)
    report = stochastic.bernoulli_verify(0.6, 10**6, rng, r_max=50)
    details = {
        "p": report.p,
        "N": report.N,
        "seed": rng.seed,
        "cross_sup": report.cross_sup,
        "gamma_0": report.gamma.get(0),
        "nu_corr_0": report.nu_corr.get(0),
    }
    return SuiteReport("bernoulli", report.checks, details)


def suite_polarisation(seed: int | None = None) -> SuiteReport:
    """Zero-frequency mass of the golden-chain correlation equals the
    squared density, within one percent."""
    R = 10_000.0
    ctx = system_context("fibonacci", R)
    comb = ctx.tps.comb()
    expected = (TAU / SQRT5) ** 2
    residual = spectra.polarisation_zero_check(comb, comb, "one_sided", R, expected)
    rel = residual / expected
    checks = (
        Check("relative residual of c_0 vs density^2", rel, 0.01, rel <= 0.01),
    )
    return SuiteReport("polarisation", checks, {"R": R, "expected": expected})


def suite_random_fibonacci(seed: int | None = None) -> SuiteReport:
    """Density, FB stabilization, and the deterministic limit of the
    locally random golden chain."""
    rng = RngSpec(7 if seed is None else seed)
    R = 10_000.0
    tps = stochastic.random_fibonacci(0.5, R, rng)
    density = tps.count() / R
    target = TAU / SQRT5
    rel_density = abs(density - target) / target

    ks = preset_module_points(5)
    spec = eberlein.AveragingSpec("one_sided", (5_000.0, R))
    report = stochastic.empirical_pp_split(tps, ks, spec)

    det = inflate.realize_geometric(inflate.fibonacci_rule(), "a", R)
    pure = stochastic.random_fibonacci(1.0, R, rng)
    mismatches = sum(
        0 if np.array_equal(det.points[t], pure.points[t]) else 1
        for t in ("a", "b")
    )
    checks = (
        Check("relative density error at p=1/2", rel_density, 0.01,
              rel_density <= 0.01),
        Check("max FB Cauchy difference over 5 points", report.max_cauchy,
              0.02, report.max_cauchy <= 0.02),
        Check("p=1 equals deterministic chain (type mismatches)",
              float(mismatches), 0.0, mismatches == 0),
    )
    details = {
        "R": R,
        "seed": rng.seed,
        "density": density,
        "residual_mass": report.residual_mass,
    }
    return SuiteReport("random_fibonacci", checks, details)


_SUITES = {
    "eberlein_exact": suite_eberlein_exact,
    "tm": suite_tm,
    "halfdensity": suite_halfdensity,
    "nullfb": suite_nullfb,
    "orthogonality": suite_orthogonality,
    "phase": suite_phase,
    "bernoulli": suite_bernoulli,
    "polarisation": suite_polarisation,
    "random_fibonacci": suite_random_fibonacci,
}


def suite_names() -> list[str]:
    return list(_SUITES) + ["all"]


def run_suite(name: str, seed: int | None = None) -> list[SuiteReport]:
    """Run one registered suite, or every suite for name 'all'."""
    if name == "all":
        return [fn(seed) for fn in _SUITES.values()]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    return [_SUITES[name](seed)]
