"""Exact convex-order and stochastic-order toolkit for discrete measures.

Exact verdicts for measure algebra, the self-convolution order criterion
and its generating-function counterpart, majorization chains with
squared-difference certificates, and the Bernstein-basis gap evaluators,
with certified truncations for the infinite families.  Every kernel runs on
ints, results and witnesses are `fractions.Fraction` values, and no float
ever decides a verdict.
"""

from importlib import import_module as _import_module

# Submodule -> the names it exports here.  ``import cxorder`` loads no
# submodule: a name is imported on first use (PEP 562), so a command
# pays only for the modules its verb runs.
_EXPORTS = {
    "bernstein": (
        "BivariateFn", "IntervalValue", "absdiff_surface", "binomial_measure",
        "binomial_weights", "compose_convex", "eq6prim_gap", "gav_gap", "gav_scan",
        "gavrea_p4_sum", "hinge_surface", "multi_rasa_gap", "poly_surface", "rasa_gap",
        "rasa_scan", "supermodularity_check", "tensor_bernstein", "unit_grid",
    ),
    "errors": (
        "ArityMismatch", "BadParameter", "CxOrderError", "DecompositionMismatch",
        "Inconclusive", "LengthMismatch", "MassMismatch", "ModeArity", "NegativeWeight",
        "NonConvexTestFn", "NonPositiveInput", "NotLattice", "NotMajorized",
        "NotNonneg", "NotSStep", "ParseError",
    ),
    "lattice": (
        "DEFAULT_EPS", "LatticeSeq", "as_lattice", "cauchy_product",
        "genfun_square_coeffs", "genfun_test", "truncate_negbinomial",
        "truncate_poisson", "truncated_family",
    ),
    "majorization": (
        "distinct_arrangements", "is_s_step", "majorizes", "s_step_chain",
        "sorted_desc",
    ),
    "measures": (
        "DiscreteMeasure", "as_rational", "dirac", "integrate_hinge", "make_measure",
        "measure_from_json", "measure_to_json",
    ),
    "orders": (
        "ConvexTestFn", "OrderVerdict", "PiecewiseLinear", "Witness", "affine_fn",
        "gap_functional", "hinge_fn", "leq_cx", "leq_st", "quad_fn", "rasa_criterion",
        "rasa_direct",
    ),
    "polynomials": (
        "MVPolynomial", "SosDecomposition", "moment_consistency", "muirhead_cx_check",
        "muirhead_scalar", "poly_eval_measures", "sos_cx_check",
        "sos_step_decomposition", "w_polynomial",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        if name not in _EXPORTS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        return _import_module(f"{__name__}.{name}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
