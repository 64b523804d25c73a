"""Exact convex-order and stochastic-order toolkit for discrete measures.

Everything runs on `fractions.Fraction`: measure algebra, the
self-convolution order criterion and its generating-function counterpart,
majorization chains with squared-difference certificates, and the
Bernstein-basis gap evaluators, all with exact verdicts and certified
truncations for the infinite families.
"""

from .bernstein import (
    BivariateFn,
    IntervalValue,
    absdiff_surface,
    binomial_measure,
    binomial_weights,
    compose_convex,
    eq6prim_gap,
    gav_gap,
    gavrea_p4_sum,
    hinge_surface,
    multi_rasa_gap,
    poly_surface,
    rasa_gap,
    supermodularity_check,
    tensor_bernstein,
    unit_grid,
)
from .errors import (
    ArityMismatch,
    BadParameter,
    CxOrderError,
    DecompositionMismatch,
    Inconclusive,
    LengthMismatch,
    MassMismatch,
    ModeArity,
    NegativeWeight,
    NonConvexTestFn,
    NonPositiveInput,
    NotLattice,
    NotMajorized,
    NotNonneg,
    NotSStep,
    ParseError,
)
from .lattice import (
    DEFAULT_EPS,
    LatticeSeq,
    as_lattice,
    cauchy_product,
    genfun_square_coeffs,
    genfun_test,
    lattice_to_measure,
    truncate_negbinomial,
    truncate_poisson,
    truncated_family,
)
from .majorization import (
    distinct_arrangements,
    is_s_step,
    majorizes,
    s_step_chain,
    sorted_desc,
)
from .measures import (
    DiscreteMeasure,
    StepFunction,
    as_rational,
    cdf_diff,
    convolve,
    dirac,
    integrate_hinge,
    make_measure,
    measure_from_json,
    measure_to_json,
    mix,
    step_function,
)
from .orders import (
    ConvexTestFn,
    OrderVerdict,
    PiecewiseLinear,
    Witness,
    affine_fn,
    gap_functional,
    hinge_fn,
    leq_cx,
    leq_st,
    quad_fn,
    rasa_criterion,
    rasa_direct,
    step_self_convolution,
)
from .polynomials import (
    MVPolynomial,
    SosDecomposition,
    moment_consistency,
    muirhead_cx_check,
    muirhead_scalar,
    poly_eval_measures,
    sos_cx_check,
    sos_step_decomposition,
    w_polynomial,
)

__version__ = "0.1.0"
