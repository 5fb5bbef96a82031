"""Spectral computations for Sturm-Liouville problems with one interior
discontinuity: characteristic functions, eigenvalue searches with
multiplicities, generalized norming constants, canonical products, and
ray-asymptotic probes of the uniqueness machinery."""

from .expr import ExprError, PotentialExpr, parse_expr
from .problem import Problem
from .ode import ScaledVal, pair_integrals, solve_chain
from .charfn import char_delta, delta_many, f_function
from .spectrum import (
    EigenRecord,
    ZeroSequence,
    find_dirichlet_eigenvalues,
    find_eigenvalues,
)
from .norming import NormingRecord, check_identity, compute_norming
from .entire import (
    ProductModel,
    check_counting_bound,
    fit_constant,
    growth_fit,
    number_ray_check,
    truncated_product,
)
from .asympt import build_expansion, decay_order_fit, s_series
from .uniq import collapse_consistency, bracket_decay_probe, modify_below, product_ratio_probe

__version__ = "0.1.0"

__all__ = [
    "ExprError",
    "PotentialExpr",
    "parse_expr",
    "Problem",
    "ScaledVal",
    "pair_integrals",
    "solve_chain",
    "char_delta",
    "delta_many",
    "f_function",
    "EigenRecord",
    "ZeroSequence",
    "find_dirichlet_eigenvalues",
    "find_eigenvalues",
    "NormingRecord",
    "check_identity",
    "compute_norming",
    "ProductModel",
    "check_counting_bound",
    "fit_constant",
    "growth_fit",
    "number_ray_check",
    "truncated_product",
    "build_expansion",
    "decay_order_fit",
    "s_series",
    "modify_below",
    "collapse_consistency",
    "bracket_decay_probe",
    "product_ratio_probe",
    "__version__",
]
