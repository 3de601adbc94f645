"""Seeded samplers and splitting verification for the random systems.

Draws come from counter-based generators keyed by (seed, stream) plus the
inflation level, consumed positionally per tile, so a rerun with a larger
target extends the earlier draws instead of reshuffling them and identical
specs reproduce identical point sets bit-for-bit.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .combs import _bounds
from .combs import linear_combine  # noqa: F401  (bench/spans.py traces this binding)
from .cps import check_points_budget
from .eberlein import AveragingSpec, _bit_rows, _lattice_correlations, _row_sites, fb_scan
from .eberlein import pair_correlation  # noqa: F401  (bench/spans.py traces this binding)
from .inflate import (
    TypedPointSet,
    _philox_generator,
    random_fibonacci_rule,
    realize_geometric,
)
from .zroot5 import FourierModulePoint

__all__ = [
    "RngSpec",
    "Check",
    "bernoulli_gas",
    "bernoulli_verify",
    "BernoulliReport",
    "random_fibonacci",
    "empirical_pp_split",
    "PPSplitReport",
]


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream id; equal specs reproduce equal output exactly."""

    seed: int
    stream: int = 0


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        """{name, measured, threshold, passed}, as every JSON report writes a check."""
        return asdict(self)


def bernoulli_gas(p: float, N: int, rng: RngSpec) -> np.ndarray:
    """Independent site occupation on {-N, ..., N} with probability p."""
    row = _occupancy(p, N, rng)
    sites = np.empty(int(np.bitwise_count(row).sum()), dtype=np.int64)
    at = 0
    for block in _row_sites(row, 2 * N + 1):
        np.subtract(block, N, out=sites[at : at + len(block)])
        at += len(block)
    return sites


def _occupancy(p: float, N: int, rng: RngSpec) -> np.ndarray:
    # The occupied sites of the gas as a bit row over -N..N (eberlein._bit_rows'
    # layout, site -N first), from the same uniforms as one draw of 2N + 1,
    # drawn a block of the row at a time.
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if N < 0:
        raise ValueError("N must be nonnegative")
    n = 2 * N + 1
    check_points_budget(n, f"a lattice gas on {{-{N}, ..., {N}}}")
    gen = _philox_generator(rng.seed, rng.stream, 0)
    return _bit_rows(n, lambda a, b: gen.random(b - a) < p)


# the thresholds of bernoulli_verify's checks
TOL_GAMMA0 = 2e-3  # |gamma(0) - p|
TOL_GAMMA = 3e-3  # |gamma(m) - p^2| for 0 < m <= r_max
TOL_NU = 3e-3  # |nu~*nu(0) - p(1-p)|, and |nu~*nu| off zero


@dataclass(frozen=True)
class BernoulliReport:
    p: float
    N: int
    gamma: dict[int, float]  # correlation atoms at integer lags
    nu_corr: dict[int, float]  # correlation of the centered comb
    cross_sup: float
    checks: tuple[Check, ...]
    row: np.ndarray = field(repr=False, compare=False)  # the drawn bit row over -N..N

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def sites(self) -> Iterator[np.ndarray]:
        """The occupied sites of the drawn gas, ascending, a block at a time:
        bernoulli_gas(p, N, rng) in pieces, from the same draw as the report."""
        for sites in _row_sites(self.row, 2 * self.N + 1):
            sites -= self.N
            yield sites


def bernoulli_verify(p: float, N: int, rng: RngSpec, r_max: int = 50) -> BernoulliReport:
    """Sample a gas, split its comb as p * delta_Z plus fluctuation, verify.

    The occupation comb should correlate to p at lag zero and p^2 at every
    other lag; the centered comb nu = delta - p * delta_Z should correlate
    to p(1-p) at zero and nothing elsewhere, with both cross correlations
    against the periodic part near zero.  Both have the same sup norm, so
    one of them is computed.

    No comb over the 2N + 1 sites is built, nor any array of a byte per
    site.  The gas is drawn as a bit row over [-N, N], 64 sites to a word, M
    its sites and P the occupied ones, and every pair of the three
    correlations is counted once, in one labelled tally of that row
    (eberlein._lattice_correlations, by popcounts of shifted words): per lag
    s and label pair, label 0 for P and 1 for M \\ P.  Each correlation
    weighs that one tally by a level per label, lambda by [1, 0], omega = p
    * delta_M by [p, p] and nu = lambda - omega by [1 - p, -p], through the
    exact sums of every correlation, so each atom is the one
    pair_correlation gives for those combs, bit for bit.  N must be a
    whole number >= 1 and r_max a whole number >= 1, neither a bool;
    ValueError otherwise.
    The report keeps the row, so report.sites() gives the gas's sites with
    no second draw.
    """
    for name, size in (("N", N), ("r_max", r_max)):
        if isinstance(size, bool) or not (
                isinstance(size, numbers.Real) and size >= 1 and float(size).is_integer()):
            raise ValueError(f"{name} must be a whole number >= 1, got {size!r}")
    N, r_max = int(N), int(r_max)
    row = _occupancy(p, N, rng)
    # levels per label, P then M \ P
    lam, nu_levels = np.array([1.0, 0.0]), np.array([1.0 - p, -p])
    omega_levels = np.full(2, float(p))
    # both factors of the cross correlation are real and restricted to
    # [-N, N], so the other one is this one mirrored, c_nu_omega(s) =
    # c_omega_nu(-s), atom for atom: each atom is the correctly rounded sum
    # of the same products
    gamma, nu_corr, cross = _lattice_correlations(
        row, 2 * N + 1, r_max, 2.0 * N,
        [(lam, lam), (nu_levels, nu_levels), (omega_levels, nu_levels)])

    g = {int(m): float(w.real) for (m, _), w in gamma.atoms_dict().items()}
    v = {int(m): float(w.real) for (m, _), w in nu_corr.atoms_dict().items()}
    gamma_err = max(abs(g.get(m, 0.0) - p * p) for m in range(1, r_max + 1))
    nu_off = max((abs(w) for m, w in v.items() if m != 0), default=0.0)
    checks = (
        Check("gamma(0) = p", abs(g.get(0, 0.0) - p), TOL_GAMMA0,
              abs(g.get(0, 0.0) - p) <= TOL_GAMMA0),
        Check("gamma(m) = p^2 off zero", gamma_err, TOL_GAMMA,
              gamma_err <= TOL_GAMMA),
        Check("nu~*nu(0) = p(1-p)", abs(v.get(0, 0.0) - p * (1 - p)), TOL_NU,
              abs(v.get(0, 0.0) - p * (1 - p)) <= TOL_NU),
        Check("nu~*nu off zero", nu_off, TOL_NU, nu_off <= TOL_NU),
    )
    return BernoulliReport(p, N, g, v, cross.sup_norm(), checks, row)


def random_fibonacci(p: float, R: float, rng: RngSpec) -> TypedPointSet:
    """Locally randomized golden-chain realization on [0, R].

    The long tile splits into long-short with probability p and short-long
    otherwise, independently per tile per level; the short tile always maps
    to a long one.  Control points are exact.
    """
    rule = random_fibonacci_rule(p)
    return realize_geometric(rule, "a", R, rng_seed=rng.seed, stream=rng.stream)


@dataclass(frozen=True)
class PPSplitReport:
    amplitudes: dict[str, dict[FourierModulePoint, complex]]  # at the final R
    total_mass: float
    residual_mass: float
    max_cauchy: float


def empirical_pp_split(
    tps: TypedPointSet,
    K: Sequence[FourierModulePoint],
    spec: AveragingSpec,
) -> PPSplitReport:
    """Per-type FB amplitudes across R with the pure-point intensity tally.

    For each type and wave number the scan reports the FB value along the R
    grid with Cauchy differences; at the final R the amplitude sums over the
    types, each of unit weight, give the empirical sharp intensities.  The
    residual mass, total autocorrelation mass at zero minus the captured
    intensity sum, bounds what the listed wave numbers leave unexplained.  Diagnostic only: no
    continuous component is reconstructed.
    """
    R_final = spec.R_list[-1]
    lo, hi = spec.interval(R_final)
    vol = spec.vol(R_final)
    amplitudes: dict[str, dict[FourierModulePoint, complex]] = {}
    max_cauchy = total = 0.0
    for t in tps.types():
        comb = tps.comb(t)
        rows = fb_scan(comb, K, spec)
        amplitudes[t] = {r.k: r.value for r in rows if r.R == R_final}
        max_cauchy = max(
            max_cauchy,
            max((r.cauchy for r in rows if r.cauchy is not None), default=0.0),
        )
        i, j = _bounds(comb, lo, hi)  # the atoms fb_scan sums at the final R
        total += (j - i) / vol

    intensities = {k: abs(sum(amplitudes[t][k] for t in tps.types())) ** 2 for k in K}
    residual = total - sum(intensities.values())
    return PPSplitReport(amplitudes, float(total), float(residual), float(max_cauchy))
