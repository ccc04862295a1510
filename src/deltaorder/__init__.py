"""Growth-order analysis of linear difference equations with polynomial coefficients.

The package analyzes equations  P_m(z) D^m f(z) + ... + P_0(z) f(z) = 0
(D the forward difference): it lists every admissible growth order below 1
for transcendental entire solutions, derives the exact coefficient
recurrence for binomial-series solutions, generates and verifies the series,
estimates growth numerically, and constructs equations with an entire
solution of any prescribed rational order in (0, 1).

Importing the package loads neither numpy nor mpmath.  The evaluation names
(``eval_series``, ``max_modulus``, ``empirical_order``, ``EvalResult`` and
``EmpiricalOrder``) are lazy attributes: the first access imports
``deltaorder.evaluation``, and with it mpmath.  numpy is
imported by the few functions that call it, on their first call.
"""

from .construction import ConstructionResult, RoundTripReport, construct_equation, roundtrip_check
from .equations import (
    DifferenceEquation,
    GeneralForm,
    OperatorTerm,
    apply_operator,
    compose_operators,
    normalize_to_delta,
)
from .newton import NewtonAnalysis, OrderEntry, analyze, order_list, s_sequence, verdict
from .parsing import format_delta_form, format_general, parse_equation
from .polynomials import NEG_INF, Poly, poly_delta, working_precision
from .recurrences import (
    AdamsPolygon,
    CoefficientRecurrence,
    PolygonSegment,
    adams_polygon,
    derive_recurrence,
    indicial_exponents,
    shifted_recurrence,
    sub_one_branches,
)
from .series import (
    GrowthEstimate,
    SeriesSolution,
    VerificationReport,
    estimate_chi,
    solve_series,
    verify_recurrence,
)

__version__ = "0.1.0"

# The evaluation layer loads mpmath, so its names are imported on first access.
_EVALUATION_NAMES = frozenset(
    ("EmpiricalOrder", "EvalResult", "empirical_order", "eval_series", "max_modulus")
)


def __getattr__(name: str):
    if name not in _EVALUATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    value = globals()[name] = getattr(evaluation, name)
    return value


__all__ = [
    "AdamsPolygon",
    "CoefficientRecurrence",
    "ConstructionResult",
    "DifferenceEquation",
    "EmpiricalOrder",
    "EvalResult",
    "GeneralForm",
    "GrowthEstimate",
    "NEG_INF",
    "NewtonAnalysis",
    "OperatorTerm",
    "OrderEntry",
    "Poly",
    "PolygonSegment",
    "RoundTripReport",
    "SeriesSolution",
    "VerificationReport",
    "adams_polygon",
    "analyze",
    "apply_operator",
    "compose_operators",
    "construct_equation",
    "derive_recurrence",
    "empirical_order",
    "estimate_chi",
    "eval_series",
    "format_delta_form",
    "format_general",
    "indicial_exponents",
    "max_modulus",
    "normalize_to_delta",
    "order_list",
    "parse_equation",
    "poly_delta",
    "roundtrip_check",
    "s_sequence",
    "shifted_recurrence",
    "solve_series",
    "sub_one_branches",
    "verdict",
    "verify_recurrence",
    "working_precision",
]
