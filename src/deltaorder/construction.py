"""Build equations possessing an entire solution of a prescribed order q/p.

For coprime 0 < q < p the template equation

    A_p ff(z,p) D^p f(z-p) + ... + A_1 z D f(z-1) - A_0 ff(z,q) f(z-q) = 0

forces the series coefficients to satisfy  g(n) a_n = a_{n-q}  on the support
n in q*N, where g collects the A-weights.  Choosing the weights so that
g(qt) = ff(pt, p) makes the surviving coefficients exactly a_0/(pt)!, whose
decay corresponds to growth order q/p.  The weights come from expanding
ff(n*p/q, p) over falling powers of n (A_0 = 1, then cleared to primitive
integers).

The canonical form recenters the template (the maximal back-shift is p, so
the recentering is z -> z+p) and folds the shifts into pure difference
powers; the recentered equation has the same solutions, in particular the
predicted series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .equations import DifferenceEquation, GeneralForm, OperatorTerm, apply_operator, normalize_to_delta
from .errors import InvalidOrderError
from .newton import NewtonAnalysis, analyze
from .polynomials import Poly, common_denominator, expand_newton, falling_factorial_poly, to_falling_basis
from .recurrences import AdamsPolygon, adams_polygon, derive_recurrence, sub_one_branches
from .series import RowReduction, SeriesSolution, estimate_chi, verify_recurrence


@dataclass(frozen=True)
class ConstructionResult:
    """A generated equation with its predicted entire solution."""

    q: int
    p: int
    weights: tuple[int, ...]  # A_0..A_p, primitive integers
    template: GeneralForm
    canonical: DifferenceEquation
    predicted_series: SeriesSolution

    @property
    def order_value(self) -> Fraction:
        return Fraction(self.q, self.p)


def construct_equation(q: int, p: int, series_length: int | None = None) -> ConstructionResult:
    """Generate an equation with an entire solution of order exactly q/p.

    ``series_length`` controls how many predicted coefficients are attached
    (default: enough for a 200-step verification and growth fit).  The
    predicted series is verified against the canonical equation on a short
    prefix before being returned.
    """
    if not (isinstance(q, int) and isinstance(p, int)):
        raise InvalidOrderError("order must be given as integers q and p")
    if not (0 < q < p):
        raise InvalidOrderError(f"order {q}/{p} is not in (0, 1)")
    if math.gcd(q, p) != 1:
        raise InvalidOrderError(f"order {q}/{p} is not in lowest terms")
    lam = Fraction(q, p)
    profile = _stretched_falling(p, 1 / lam)
    weights_rational = to_falling_basis(profile)
    # ff(n/lam, p) vanishes at n = 0, so there is no constant weight
    if weights_rational[0] != 0:
        raise ArithmeticError("stretched falling power has a constant weight")
    denom, ints = common_denominator(weights_rational[1:])
    content = math.gcd(denom, *ints)
    weights = tuple([denom // content] + [w // content for w in ints])  # A_0..A_p
    terms = [
        OperatorTerm(
            coefficient=falling_factorial_poly(j) * weights[j],
            delta_power=j,
            shift=-j,
        )
        for j in range(p, 0, -1)
    ]
    terms.append(
        OperatorTerm(
            coefficient=falling_factorial_poly(q) * (-weights[0]),
            delta_power=0,
            shift=-q,
        )
    )
    template = GeneralForm(terms=tuple(terms))
    canonical = normalize_to_delta(template)
    if series_length is None:
        series_length = 200 * q + p + 1
    predicted = _predicted_series(q, p, series_length)
    residual = apply_operator(canonical, predicted, min(40, series_length - p))
    if any(v != 0 for v in residual):
        raise ArithmeticError("predicted series fails the generated equation")
    return ConstructionResult(
        q=q,
        p=p,
        weights=weights,
        template=template,
        canonical=canonical,
        predicted_series=predicted,
    )


def _stretched_falling(p: int, stretch: Fraction) -> Poly:
    """The polynomial  (stretch*n)(stretch*n - 1)...(stretch*n - p + 1)  in n."""
    return expand_newton([0] * p + [stretch**p], [u / stretch for u in range(p)])


def _predicted_series(q: int, p: int, length: int) -> SeriesSolution:
    coeffs = [Fraction(0)] * (length + 1)
    t = 0
    while q * t <= length:
        coeffs[q * t] = Fraction(1, math.factorial(p * t))
        t += 1
    return SeriesSolution.from_values(coeffs, rho=0, provenance={"constructed": True})


@dataclass(frozen=True)
class RoundTripReport:
    """Analyzer pipeline results for a constructed equation."""

    ok: bool
    stages: tuple[tuple[str, bool, str], ...]
    analysis: NewtonAnalysis
    polygon: AdamsPolygon
    chi_hat: float


def roundtrip_check(result: ConstructionResult, rows: int = 200) -> RoundTripReport:
    """Run the full analyzer pipeline against a construction.

    Checks, in order: the prescribed order appears in the admissible order
    list; the window recurrence of the canonical form is satisfied exactly by
    the predicted series over ``rows`` rows; the solver pinned to the
    predicted free data reproduces the series; the polygon exposes a slope
    p/q branch; and the fitted decay of the prediction lands within 0.01 of
    q/p.  Each stage reports pass/fail with a detail string.
    """
    target = result.order_value
    stages = []

    analysis = analyze(result.canonical)
    listed = [entry.rho for entry in analysis.orders]
    stages.append(("newton", target in listed, f"orders {listed}"))

    rec = derive_recurrence(result.canonical)
    need = rows + rec.order
    predicted = result.predicted_series
    if len(predicted.coeffs) <= need:
        predicted = _predicted_series(result.q, result.p, need)
    report = verify_recurrence(rec, predicted, rows)
    stages.append(
        ("recurrence", report.exact, f"max residual {report.max_residual}")
    )

    # the free parameters come from the elimination that the pinned solve finishes
    reduction = RowReduction(rec, rows)
    solved = reduction.pin({idx: predicted.coeffs[idx] for idx in reduction.free_ids})
    match = solved.coeffs == predicted.coeffs[: rows + 1]
    stages.append(("series", match, "pinned solve reproduces the prediction"))

    polygon = adams_polygon(rec)
    branches = [chi for chi, _ in sub_one_branches(polygon)]
    stages.append(("polygon", target in branches, f"sub-1 branches {branches}"))

    growth = estimate_chi(predicted.coeffs)
    chi_ok = abs(growth.chi_hat - float(target)) < 0.01
    stages.append(("chi", chi_ok, f"chi_hat {growth.chi_hat:.4f}"))

    return RoundTripReport(
        ok=all(ok for _, ok, _ in stages),
        stages=tuple(stages),
        analysis=analysis,
        polygon=polygon,
        chi_hat=growth.chi_hat,
    )

