"""Growth-order analysis of linear difference equations with polynomial coefficients.

The package analyzes equations  P_m(z) D^m f(z) + ... + P_0(z) f(z) = 0
(D the forward difference): it lists every admissible growth order below 1
for transcendental entire solutions, derives the exact coefficient
recurrence for binomial-series solutions, generates and verifies the series,
estimates growth numerically, and constructs equations with an entire
solution of any prescribed rational order in (0, 1).
"""

from .construction import ConstructionResult, RoundTripReport, construct_equation, roundtrip_check
from .equations import (
    DifferenceEquation,
    GeneralForm,
    OperatorTerm,
    apply_operator,
    compose_operators,
    delta_to_shift,
    normalize_to_delta,
)
from .evaluation import EmpiricalOrder, EvalResult, empirical_order, eval_series, max_modulus
from .newton import NewtonAnalysis, OrderEntry, analyze, order_list, s_sequence, verdict
from .parsing import format_delta_form, format_general, parse_equation
from .polynomials import (
    FallingExpansion,
    NEG_INF,
    Poly,
    Rational,
    falling_factorial,
    falling_power_eval,
    falling_product_expand,
    from_falling_basis,
    iterated_delta,
    poly_delta,
    to_falling_basis,
    working_precision,
)
from .recurrences import (
    AdamsPolygon,
    CoefficientRecurrence,
    PolygonSegment,
    adams_polygon,
    degree_profile,
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

__all__ = [
    "AdamsPolygon",
    "CoefficientRecurrence",
    "ConstructionResult",
    "DifferenceEquation",
    "EmpiricalOrder",
    "EvalResult",
    "FallingExpansion",
    "GeneralForm",
    "GrowthEstimate",
    "NEG_INF",
    "NewtonAnalysis",
    "OperatorTerm",
    "OrderEntry",
    "Poly",
    "PolygonSegment",
    "Rational",
    "RoundTripReport",
    "SeriesSolution",
    "VerificationReport",
    "adams_polygon",
    "analyze",
    "apply_operator",
    "compose_operators",
    "construct_equation",
    "degree_profile",
    "delta_to_shift",
    "derive_recurrence",
    "empirical_order",
    "estimate_chi",
    "eval_series",
    "falling_factorial",
    "falling_power_eval",
    "falling_product_expand",
    "format_delta_form",
    "format_general",
    "from_falling_basis",
    "indicial_exponents",
    "iterated_delta",
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
    "to_falling_basis",
    "verdict",
    "verify_recurrence",
    "working_precision",
]
