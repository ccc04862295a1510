"""Build equations possessing an entire solution of a prescribed order q/p.

For coprime 0 < q < p the template equation

    A_p ff(z,p) D^p f(z-p) + ... + A_1 z D f(z-1) - A_0 ff(z,q) f(z-q) = 0

forces the series coefficients to satisfy  g(n) a_n = a_{n-q}  on the support
n in q*N, where g collects the A-weights.  Choosing the weights so that
g(qt) = ff(pt, p) makes the surviving coefficients exactly a_0/(pt)!, whose
decay corresponds to growth order q/p.  The weights come from expanding
ff(n*p/q, p) = (p/q)^p prod_u (n - uq/p) over falling powers of n, on
integer lists (A_0 = 1, then cleared to primitive integers).

The canonical form recenters the template (the maximal back-shift is p, so
the recentering is z -> z+p) and folds the shifts into pure difference
powers; the recentered equation has the same solutions, in particular the
predicted series.

The round trip runs the analyzer on the canonical form and checks the
window rows in one pass: verification substitutes the prediction into rows
first_row..ROUNDTRIP_ROWS, reading only the window entries on its support
q*N.  Its verdict decides both the recurrence and the series stage.  A row
reduction of those rows with every predicted value pinned has no free
parameter, so its one candidate is the prediction, and it finishes exactly
when every row holds on the prediction: the pinned solve reproduces the
prediction exactly when verification passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record, _set
from .equations import DifferenceEquation, GeneralForm, OperatorTerm, apply_operator, normalize_to_delta
from .errors import InsufficientDataError, InvalidOrderError
from .newton import NewtonAnalysis, analyze
from .polynomials import Poly, _integer_falling_basis, _newton_poly
from .recurrences import AdamsPolygon, adams_polygon, derive_recurrence, sub_one_branches
from .series import SeriesSolution, estimate_chi, verify_recurrence

#: Recurrence rows that the round trip checks.  The predicted
#: series of q/p runs to index ROUNDTRIP_ROWS * q + p + 1: past the deepest
#: index ROUNDTRIP_ROWS + p that the rows reach, with ROUNDTRIP_ROWS + 1
#: nonzero coefficients on its support q*N for the growth fit.
ROUNDTRIP_ROWS = 200

#: Largest denominator p of an order q/p that ``construct_equation`` accepts;
#: it admits 100/101.  Rows up to ROUNDTRIP_ROWS reach index ROUNDTRIP_ROWS + p,
#: which covers the window span 2p while p <= ROUNDTRIP_ROWS.  On a shared
#: 2-vCPU host ``deltaorder construct`` took 8.9 s at 1/64, 33.5 s at 1/101
#: and 74.7 s at 1/128 (3.8, 11.8 and 20.9 s at (p-1)/p), most of it
#: printing the predicted series; construction and round trip of 1/101 take
#: about 5 s in process.
MAX_ORDER_DENOMINATOR = 101


class ConstructionResult(Record):
    """A generated equation with its predicted entire solution.

    ``weights`` are A_0..A_p, primitive integers.
    """

    __slots__ = ("q", "p", "weights", "template", "canonical", "predicted_series")

    def __init__(
        self,
        q: int,
        p: int,
        weights: tuple[int, ...],
        template: GeneralForm,
        canonical: DifferenceEquation,
        predicted_series: SeriesSolution,
    ):
        _set(self, "q", q)
        _set(self, "p", p)
        _set(self, "weights", weights)
        _set(self, "template", template)
        _set(self, "canonical", canonical)
        _set(self, "predicted_series", predicted_series)

    @property
    def order_value(self) -> Fraction:
        return Fraction(self.q, self.p)


def construct_equation(q: int, p: int) -> ConstructionResult:
    """Generate an equation with an entire solution of order exactly q/p.

    The predicted series carries enough coefficients for the round trip's
    ``ROUNDTRIP_ROWS`` rows and growth fit.  It is verified against the
    canonical equation on a short prefix before being returned.  An order
    outside (0, 1), not in lowest terms, or with p above
    ``MAX_ORDER_DENOMINATOR`` raises InvalidOrderError before any work.
    """
    if not (isinstance(q, int) and isinstance(p, int)):
        raise InvalidOrderError("order must be given as integers q and p")
    if not (0 < q < p):
        raise InvalidOrderError(f"order {q}/{p} is not in (0, 1)")
    if math.gcd(q, p) != 1:
        raise InvalidOrderError(f"order {q}/{p} is not in lowest terms")
    if p > MAX_ORDER_DENOMINATOR:
        raise InvalidOrderError(f"order {q}/{p}: denominator {p} exceeds the limit {MAX_ORDER_DENOMINATOR}")
    # ff(np/q, p) = (p/q)^p P(n) / den with P(n) / den = prod_u (n - uq/p),
    # so A_j is proportional to p^p times the coefficient of ff(n, j) in P;
    # P(0) = 0, so there is no constant weight
    product = _newton_poly(1, [0] * p + [1], p, [u * q for u in range(p)])
    basis = _integer_falling_basis(Poly._from_ints(product.nums))
    raw = [q**p * product.den] + [p**p * c for c in basis[1:]]
    content = math.gcd(*raw)
    weights = tuple(w // content for w in raw)  # A_0..A_p
    terms = [
        OperatorTerm(
            coefficient=_newton_poly(1, [0] * j + [weights[j]], 1, range(j)),
            delta_power=j,
            shift=-j,
        )
        for j in range(p, 0, -1)
    ]
    terms.append(
        OperatorTerm(
            coefficient=_newton_poly(1, [0] * q + [-weights[0]], 1, range(q)),
            delta_power=0,
            shift=-q,
        )
    )
    template = GeneralForm(terms=tuple(terms))
    canonical = normalize_to_delta(template)
    predicted = _predicted_series(q, p, ROUNDTRIP_ROWS * q + p + 1)
    residual = apply_operator(canonical, predicted, 40)
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


def _predicted_series(q: int, p: int, length: int) -> SeriesSolution:
    coeffs = [Fraction(0)] * (length + 1)
    factorial, k = 1, 0  # factorial == k!, carried from one t to the next
    for t in range(length // q + 1):
        while k < p * t:
            k += 1
            factorial *= k
        coeffs[q * t] = Fraction(1, factorial)
    return SeriesSolution.from_values(coeffs, rho=0, provenance={"constructed": True})


class RoundTripReport(Record):
    """Analyzer pipeline results for a constructed equation.

    ``ok`` is set here: every stage passed.
    """

    __slots__ = ("ok", "stages", "analysis", "polygon", "chi_hat")

    def __init__(
        self,
        stages: tuple[tuple[str, bool, str], ...],
        analysis: NewtonAnalysis,
        polygon: AdamsPolygon,
        chi_hat: float,
    ):
        _set(self, "ok", all(ok for _, ok, _ in stages))
        _set(self, "stages", stages)
        _set(self, "analysis", analysis)
        _set(self, "polygon", polygon)
        _set(self, "chi_hat", chi_hat)


def roundtrip_check(result: ConstructionResult) -> RoundTripReport:
    """Run the full analyzer pipeline against a construction.

    Checks, in order: the prescribed order appears in the admissible order
    list; the window rows of the canonical form up to ``ROUNDTRIP_ROWS``
    hold exactly on the predicted series, and the solver reproduces it; the
    polygon exposes a slope p/q branch; and the fitted decay of the
    prediction lands within 0.01 of q/p.  Each stage reports pass/fail with
    a detail string.

    The two row stages share one pass of ``verify_recurrence``.  Its
    verdict is the pinned solve's: a ``RowReduction`` of the same rows with
    every predicted value up to index ``ROUNDTRIP_ROWS + order`` pinned has
    no free parameter, since every index that no row determines is pinned,
    so its one candidate is the prediction, and it finishes if and only if
    the prediction satisfies every row.  The recurrence stage reports
    verification's largest residual.
    """
    target = result.order_value
    stages = []

    analysis = analyze(result.canonical)
    listed = [entry.rho for entry in analysis.orders]
    stages.append(("newton", target in listed, f"orders {listed}"))

    rec = derive_recurrence(result.canonical)
    count = ROUNDTRIP_ROWS + rec.order
    predicted = result.predicted_series
    if len(predicted.coeffs) <= count:
        raise InsufficientDataError(
            f"the round trip needs {count + 1} predicted coefficients, have {len(predicted.coeffs)}"
        )
    report = verify_recurrence(rec, predicted, ROUNDTRIP_ROWS)
    stages.append(("recurrence", report.exact, f"max residual {report.max_residual}"))
    stages.append(("series", report.exact, "pinned solve reproduces the prediction"))

    polygon = adams_polygon(rec)
    branches = [chi for chi, _ in sub_one_branches(polygon)]
    stages.append(("polygon", target in branches, f"sub-1 branches {branches}"))

    growth = estimate_chi(predicted.coeffs)
    chi_ok = abs(growth.chi_hat - float(target)) < 0.01
    stages.append(("chi", chi_ok, f"chi_hat {growth.chi_hat:.4f}"))

    return RoundTripReport(stages=tuple(stages), analysis=analysis, polygon=polygon, chi_hat=growth.chi_hat)

