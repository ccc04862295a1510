"""Growth-order analysis of linear difference equations with polynomial coefficients.

The package analyzes equations  P_m(z) D^m f(z) + ... + P_0(z) f(z) = 0
(D the forward difference): it lists every admissible growth order below 1
for transcendental entire solutions, derives the exact coefficient
recurrence for binomial-series solutions, generates and verifies the series,
estimates growth numerically, and constructs equations with an entire
solution of any prescribed rational order in (0, 1).

Every public name is a lazy attribute: its first access imports the one
submodule that defines it, so ``import deltaorder`` loads no submodule, and
a command loads only what it uses.  ``deltaorder.evaluation`` brings mpmath;
numpy is imported by the few functions that call it, on their first call.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "construction": ("ConstructionResult", "RoundTripReport", "construct_equation", "roundtrip_check"),
    "equations": (
        "DifferenceEquation", "GeneralForm", "OperatorTerm",
        "apply_operator", "compose_operators", "normalize_to_delta",
    ),
    "evaluation": ("EmpiricalOrder", "EvalResult", "empirical_order", "eval_series", "max_modulus"),
    "newton": ("NewtonAnalysis", "OrderEntry", "analyze", "order_list", "s_sequence", "verdict"),
    "parsing": ("format_delta_form", "format_general", "parse_equation"),
    "polynomials": ("NEG_INF", "Poly", "poly_delta", "working_precision"),
    "recurrences": (
        "AdamsPolygon", "CoefficientRecurrence", "PolygonSegment", "adams_polygon",
        "derive_recurrence", "indicial_exponents", "shifted_recurrence", "sub_one_branches",
    ),
    "series": (
        "GrowthEstimate", "SeriesSolution", "VerificationReport",
        "estimate_chi", "solve_series", "verify_recurrence",
    ),
}
_MODULES = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"), name)
    return value

