"""Numerical workbench for Poisson-Lie structures on semidirect products
arising from matched pairs of Lie groups."""

__version__ = "0.1.0"

from .config import ALGEBRAIC_TOL, FD_TOL, DEFAULT_TOL, Tolerances
from .linalg import BasedSpace, finite_diff
from .lie import IM_TRACE, RE_TRACE, LieAlgebra, SubspaceDecomposition, from_realization
from .matched import MatchedPair
from .group import EElement, GroupElement, adE, e_mul, exp_b

__all__ = [
    "ALGEBRAIC_TOL", "FD_TOL", "DEFAULT_TOL", "Tolerances",
    "BasedSpace", "finite_diff",
    "IM_TRACE", "RE_TRACE", "LieAlgebra", "SubspaceDecomposition",
    "from_realization",
    "MatchedPair", "EElement", "GroupElement",
    "adE", "e_mul", "exp_b",
]
