"""Weighted polyanalytic Bergman, Dirichlet and Besov spaces on the unit disk
and the upper half-plane: exact Wirtinger calculus on polyanalytic
polynomials, polar quadrature, weighted (semi)norms, and the dilatation /
polynomial-density experiments."""

from .domain import Domain
from .polyfun import (
    PolyFunction,
    add,
    block_evaluators,
    d_z,
    d_zbar,
    dilate,
    evaluate,
    exp_taylor,
    from_monomials,
    monomial,
    mul,
    scale,
    sub,
    truncate,
    zero,
)
from .weights import (
    AngularPoly,
    ConditionWitness,
    ExpAbs,
    ExpAbsPow,
    ExpRePow,
    PowerLaw,
    Product,
    Uniform,
    Weight,
    check_condition,
    eval_weight,
    find_min_k,
)
from .quadrature import (
    DEFAULT_MAX_LEVEL,
    DEFAULT_N_R,
    DEFAULT_N_THETA,
    DEFAULT_REL_TOL,
    QuadSettings,
    QuadratureGrid,
    RefineResult,
    default_radius,
    disk_grid,
    grid_family,
    halfplane_grid,
    halfplane_mc_check,
    integrate,
    refine_levels,
    refine_until,
)
from .norms import (
    NormResult,
    SpaceKind,
    SpaceSpec,
    bergman_norm,
    besov_norm,
    dirichlet_norm,
    norm_of_difference,
    space_norm,
    weighted_p_integral,
)
from .experiments import (
    ApproxReport,
    ConvergenceReport,
    LimsupReport,
    SuiteReport,
    default_matrix,
    dilatation_convergence,
    limsup_check,
    poly_approx,
    run_theorem_suite,
    standard_functions,
)

__version__ = "0.1.0"
