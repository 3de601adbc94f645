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
from .zroot5 import SQRT5, TAU, FourierModulePoint, QuadraticInt

__all__ = [
    "SuiteReport",
    "MODEL_SETS",
    "SystemContext",
    "system_context",
    "preset_system",
    "preset_module_points",
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
            "checks": [c.to_dict() for c in self.checks],
            "details": self.details,
        }


def preset_module_points(count: int = PRESET_MODULE_COUNT) -> list[FourierModulePoint]:
    """The smallest positive module points with |k| <= 3 and |k*| <= 3."""
    pts = [k for k in cps.fourier_module(3.0, 3.0) if k.value() > 1e-12]
    return pts[:count]


def preset_k_points() -> list:
    return preset_module_points() + list(PRESET_NONMODULE)


# Each splittable preset's model set per type, the one place that names a
# preset's windows: the window it is cut and projected from, or None for Z.
_GOLDEN = cps.fibonacci_windows()
MODEL_SETS: dict[str, dict[str, cps.Window | None]] = {
    "fibonacci": _GOLDEN,
    "twisted_fibonacci": {t: _GOLDEN[t[0]] for t in ("a", "a_", "b", "b_")},
    "thue_morse": {"a": None, "b": None},
}


@dataclass(frozen=True)
class SystemContext:
    """One generated system: per type its MODEL_SETS entry (windows), model
    set codes on [0, R] (models), point count, alpha and (omega, nu)."""

    rule: inflate.SubstitutionRule
    rng: tuple[float, float]
    counts: dict[str, int]
    windows: dict[str, cps.Window | None]
    models: dict[str, np.ndarray]
    alphas: dict[str, float]
    splits: dict[str, tuple[combs.WeightedComb, combs.WeightedComb]]

    @property
    def tps(self) -> inflate.TypedPointSet:
        """The realization, rebuilt a type at a time when read (by bench/pipeline.py only)."""
        points = inflate._Derived(self.splits, lambda t: combs.split_points(*self.splits[t]))
        return inflate.TypedPointSet(points, self.rng)


def _det(rows: list[list[QuadraticInt]]) -> QuadraticInt:
    """Determinant of a square Z[tau] matrix, expanded along its first row."""
    if not rows:
        return QuadraticInt(1)
    return sum((rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]]) * (-1) ** j
                for j in range(len(rows))), QuadraticInt(0))


def preset_system(name: str):
    """A preset system's rule, model sets (MODEL_SETS[name]) and alphas, exact
    and the same at every R: alpha_t = v_t / (sum_j v_j l_j * dens(M_t)), with
    v the letter frequencies, column 0 of adj(S - lambda I).  Each alpha is
    rational; an irrational one raises ValueError, as does a system with no
    model set (random_fibonacci)."""
    rule = inflate.builtin_rule(name)
    if name not in MODEL_SETS:
        raise ValueError(f"system {name!r} has no model set")
    model_sets = dict(MODEL_SETS[name])
    mat, lam = inflate.substitution_matrix(rule), rule.inflation_factor
    shifted = [[QuadraticInt(int(x)) - (lam if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(mat)]
    v = {t: _det([r[:i] + r[i + 1:] for r in shifted[1:]]) * (-1) ** i
         for i, t in enumerate(rule.alphabet)}
    mean_length = sum((v[t] * rule.lengths[t] for t in rule.alphabet), QuadraticInt(0))
    alphas = {}
    for t, w in model_sets.items():
        # dens(M_t) = vol / root5: vol(W_t) / sqrt 5 (= 2 tau - 1), or 1 / 1 for Z
        vol, root5 = (1, 1) if w is None else (
            sum(iv.hi - iv.lo for iv in w.intervals), QuadraticInt(-1, 2))
        den = mean_length * vol
        # (p + q tau) / N over the integer N = den * den*, rounded once
        num = v[t] * root5 * den.star()
        if num.n != 0:
            raise ValueError(f"alpha of type {t!r} of {name} is irrational")
        alphas[t] = float(Fraction(num.m, (den * den.star()).m))
    return rule, model_sets, alphas


# verify reads two contexts and split and fb one; a context at R = 1e7
# holds about 69 MiB, so a session over several large R keeps two at most
@lru_cache(maxsize=2)
def system_context(name: str, R: float) -> SystemContext:
    """Generate a preset system on [0, R] and split every type with
    preset_system's model set M and alpha: omega = alpha * delta_M covers
    (0, R).  R must be positive, else ValueError is raised."""
    if R <= 0:
        raise ValueError(f"R must be positive, got {R!r}")
    rule, model_sets, alphas = preset_system(name)
    tps = inflate.realize_geometric(rule, "a", R)
    rng, counts = (0.0, R), {t: tps.count(t) for t in rule.alphabet}
    # types on one model set share one read-only array of its codes
    codes: dict[cps.Window | None, np.ndarray] = {}
    for w in dict.fromkeys(model_sets.values()):
        codes[w] = (combs.lattice_comb(0, math.floor(R)).codes if w is None
                    else cps.cut_and_project(w, rng))
        codes[w].setflags(write=False)
    models = {t: codes[w] for t, w in model_sets.items()}
    splits = {t: combs.split_pp(tps.codes[t], models[t], alphas[t], rng) for t in models}
    return SystemContext(rule, tps.rng, counts, model_sets, models, alphas, splits)


def suite_eberlein_exact(seed: int | None = None) -> SuiteReport:
    """Exact counting oracle for the restricted lattice self-convolution."""
    R, r_max = 100, 20
    z = combs.lattice_comb(-R, R)
    g = eberlein.eberlein_convolve(z, z, "symmetric", float(R), r_max, "both")
    worst = max(
        abs(g.atom((m, 0)) - (2 * R + 1 - abs(m)) / (2 * R))
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

    row, n = _tm_occupancy(inflate.thue_morse_rule(), float(n_letters))
    correlations = _tm_correlations(row, n, float(n_letters), 32)
    worst_atom = 0.0
    for (a, b), g in correlations.items():
        sign = 1.0 if a == b else -1.0
        for m in range(-32, 33):
            want = 0.25 * (1.0 + sign * float(brute[abs(m)]))
            worst_atom = max(worst_atom, abs(g.atom((m, 0)) - want))

    # wall time stays out of the report so reruns are byte-identical; the
    # acceptance gate asserts the runtime budget separately
    riesz = spectra.riesz_coefficients(20, 8)
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


def _tm_occupancy(rule: inflate.SubstitutionRule, R: float) -> tuple[np.ndarray, int]:
    """Type a's bit row (eberlein._bit_rows' layout) over the sites 0..n-1 of
    a doubling-chain word on [0, R], and n: every tile has length 1, so tile
    k starts at k (else ValueError).  The word is packed a block at a time."""
    one = QuadraticInt(1, 0)
    if any(length != one for length in rule.lengths.values()):
        raise ValueError(f"the types of {rule.name} do not tile the integers: "
                         f"tile lengths {dict(rule.lengths)}")
    word, a = inflate.realize_word(rule, "a", R), rule.alphabet.index("a")
    return eberlein._bit_rows(len(word), lambda s, t: word[s:t] == a), len(word)


def _tm_correlations(
    row: np.ndarray, n: int, R: float, r_max: int
) -> dict[tuple[str, str], combs.WeightedComb]:
    """The typed pair correlations on [0, R], one_sided, of a doubling-chain
    realization whose sites 0..n-1 hold type a where the bit row is set and
    type b elsewhere: atom for atom those of pair_correlation on its combs.

    One labelled tally of the bit row (eberlein._lattice_correlations: label
    0 for type a, 1 for type b) counts every typed pair once; type a weighs
    it by the levels [1, 0] per label and type b by [0, 1].
    """
    levels = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    pairs = [(a, b) for a in "ab" for b in "ab"]
    weighings = [(levels[a], levels[b]) for a, b in pairs]
    return dict(zip(pairs, eberlein._lattice_correlations(row, n, r_max, R, weighings)))


def suite_halfdensity(seed: int | None = None) -> SuiteReport:
    """Each twisted type fills half of its model set, by counting."""
    R = 10_000.0
    ctx = system_context("twisted_fibonacci", R)
    ratios = {
        t: ctx.counts[t] / len(ctx.models[t]) for t in ctx.rule.alphabet
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
    comb, _ = ctx.splits["a"]  # omega = 1 * delta_M on (0, R): the model set's comb
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
    comb = inflate.realize_geometric(inflate.fibonacci_rule(), "a", R).comb()
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
        0 if np.array_equal(det.codes[t], pure.codes[t]) else 1
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
