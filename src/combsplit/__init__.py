"""Aperiodic one-dimensional point sets, Dirac-comb splitting, and averaged
correlation / diffraction checks."""

__version__ = "0.1.0"

from .zroot5 import QuadraticInt, FourierModulePoint, TAU, SQRT5
from .combs import WeightedComb, dirac_comb, lattice_comb
from .inflate import SubstitutionRule, TypedPointSet, builtin_rule, realize_geometric
from .cps import Window, Interval, cut_and_project, model_set_density
from .eberlein import AveragingSpec, eberlein_convolve, pair_correlation

__all__ = [
    "__version__",
    "QuadraticInt",
    "FourierModulePoint",
    "TAU",
    "SQRT5",
    "WeightedComb",
    "dirac_comb",
    "lattice_comb",
    "SubstitutionRule",
    "TypedPointSet",
    "builtin_rule",
    "realize_geometric",
    "Window",
    "Interval",
    "cut_and_project",
    "model_set_density",
    "AveragingSpec",
    "eberlein_convolve",
    "pair_correlation",
]
