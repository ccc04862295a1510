import dataclasses
import functools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    Poly,
    adams_polygon,
    analyze,
    construct_equation,
    derive_recurrence,
    normalize_to_delta,
    parse_equation,
    roundtrip_check,
    sub_one_branches,
)
from deltaorder.construction import MAX_ORDER_DENOMINATOR, ROUNDTRIP_ROWS, ConstructionResult
from deltaorder.errors import InconsistentSystemError, InsufficientDataError, InvalidOrderError
from deltaorder.series import RowReduction, SeriesSolution, solve_series, verify_recurrence

from fixtures_equations import HALF_ORDER, deadline, undetermined


def test_rejects_bad_orders():
    with pytest.raises(InvalidOrderError):
        construct_equation(2, 4)  # not coprime
    with pytest.raises(InvalidOrderError):
        construct_equation(1, 1)
    with pytest.raises(InvalidOrderError):
        construct_equation(3, 2)
    with pytest.raises(InvalidOrderError):
        construct_equation(0, 5)


def test_half_order_weights():
    # the profile (2n)(2n - 1) = 4 ff(n,2) + 2 ff(n,1) gives weights 4, 2, 1
    result = construct_equation(1, 2)
    assert result.weights == (1, 2, 4)
    assert result.template.terms[0].coefficient == Poly([0, -4, 4])
    assert result.template.terms[0].delta_power == 2
    assert result.template.terms[0].shift == -2
    assert result.template.terms[-1].coefficient == Poly([0, -1])
    assert result.template.terms[-1].shift == -1


def test_weight_ratio_is_order_power():
    for q, p in ((1, 2), (3, 4), (2, 5), (5, 6)):
        result = construct_equation(q, p)
        assert Fraction(result.weights[0], result.weights[-1]) == Fraction(q, p) ** p


def test_weights_satisfy_the_defining_identity():
    # g(qt) = sum_{j>=1} A_j ff(qt, j) equals A_0 ff(pt, p), with primitive weights and A_0 > 0
    for p in range(2, 13):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            weights = construct_equation(q, p).weights
            assert len(weights) == p + 1
            assert math.gcd(*weights) == 1 and weights[0] > 0, (q, p)
            for t in range(5):
                lhs = sum(a * math.perm(q * t, j) for j, a in enumerate(weights) if j)
                assert lhs == weights[0] * math.perm(p * t, p), (q, p, t)


def test_predicted_series_pattern():
    result = construct_equation(3, 4)
    coeffs = result.predicted_series.coeffs
    assert result.predicted_series.support_modulus == 3
    for t in range(0, 20):
        assert coeffs[3 * t] == Fraction(1, math.factorial(4 * t))
    assert all(
        coeffs[n] == 0 for n in range(61) if n % 3
    )


def test_roundtrip_three_quarters():
    result = construct_equation(3, 4)
    report = roundtrip_check(result)
    assert report.ok, report.stages
    assert abs(report.chi_hat - 0.75) < 0.01
    slopes = [seg.slope for seg in report.polygon.segments]
    assert Fraction(4, 3) in slopes


def test_roundtrip_one_fifth():
    result = construct_equation(1, 5)
    report = roundtrip_check(result)
    assert report.ok, report.stages
    assert Fraction(1, 5) in [e.rho for e in report.analysis.orders]


def test_half_order_family_agrees_with_fixture():
    # the independent second-order fixture has the same admissible order as
    # the generated half-order equation
    fixture = analyze(normalize_to_delta(parse_equation(HALF_ORDER)))
    generated = analyze(construct_equation(1, 2).canonical)
    assert [e.rho for e in fixture.orders] == [e.rho for e in generated.orders] == [
        Fraction(1, 2)
    ]
    polygon = adams_polygon(
        derive_recurrence(normalize_to_delta(parse_equation(HALF_ORDER)))
    )
    assert sub_one_branches(polygon) == [(Fraction(1, 2), 1)]


def test_all_coprime_pairs_up_to_six():
    pairs = [
        (q, p)
        for p in range(2, 7)
        for q in range(1, p)
        if math.gcd(q, p) == 1
    ]
    assert len(pairs) == 11
    for q, p in pairs:
        result = construct_equation(q, p)
        analysis = analyze(result.canonical)
        assert Fraction(q, p) in [e.rho for e in analysis.orders], (q, p)


def test_predicted_series_holds_one_over_factorials():
    from deltaorder.construction import _predicted_series

    for q, p, length in ((3, 2, 40), (1, 5, 12), (7, 3, 6)):
        expected = [
            Fraction(1, math.factorial(p * (n // q))) if n % q == 0 else 0 for n in range(length + 1)
        ]
        assert list(_predicted_series(q, p, length).coeffs) == expected


def _rebuilt(result, canonical=None, predicted_series=None):
    """``result`` with its canonical equation or predicted series replaced."""
    return ConstructionResult(
        result.q,
        result.p,
        result.weights,
        result.template,
        canonical or result.canonical,
        predicted_series or result.predicted_series,
    )


def _with_coefficient(result, idx, value):
    coeffs = list(result.predicted_series.coeffs)
    coeffs[idx] = Fraction(value)
    series = dataclasses.replace(result.predicted_series, coeffs=tuple(coeffs))
    return _rebuilt(result, predicted_series=series)


def _stage(report, name):
    return next(ok for stage, ok, _ in report.stages if stage == name)


def test_corrupted_prediction_fails_the_series_stage():
    result = construct_equation(1, 2)
    assert undetermined(derive_recurrence(result.canonical), 200) == [0, 1]
    # a row-determined value, then a pinned one
    for idx, value in ((50, result.predicted_series.coeffs[50] * 2), (1, Fraction(1, 7))):
        report = roundtrip_check(_with_coefficient(result, idx, value))
        assert report.ok is False
        assert _stage(report, "series") is False, (idx, report.stages)


# rows read (n+1) a_n + (n+1)(n-3) a_{n+1} = 0: row 3 has a zero lead and
# forces a_3 = 0, hence a_0 = 0, which the prediction a_0 = 1 contradicts
ZERO_LEAD = "(z-3) D f(z) + f(z) = 0"


def test_prediction_violating_a_zero_lead_row_fails_the_series_stage():
    canonical = normalize_to_delta(parse_equation(ZERO_LEAD))
    result = _rebuilt(construct_equation(1, 2), canonical=canonical)
    rec = derive_recurrence(canonical)
    assert undetermined(rec, 200) == [0, 4]
    pins = {idx: result.predicted_series.coeffs[idx] for idx in (0, 4)}
    with pytest.raises(InconsistentSystemError):
        solve_series(rec, 200, initial=pins)
    report = roundtrip_check(result)
    assert report.ok is False
    assert _stage(report, "series") is False


# the orders of the construct-roundtrip benchmark workload
ROUNDTRIP_ORDERS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6))


@functools.lru_cache(maxsize=None)
def _roundtrip_case(case):
    """A construction of order q/p, or the 1/2 prediction beside ``ZERO_LEAD``, with its recurrence."""
    if case == "zero-lead":
        canonical = normalize_to_delta(parse_equation(ZERO_LEAD))
        result = _rebuilt(construct_equation(1, 2), canonical=canonical)
    else:
        result = construct_equation(*case)
    return result, derive_recurrence(result.canonical)


@pytest.mark.parametrize("case", [*ROUNDTRIP_ORDERS, "zero-lead"], ids=str)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_both_row_stages_agree_with_verification(case, data):
    # one coefficient, row-determined or pinned, set to zero, to twice its
    # value or to a small rational.  Verification decides both stages; the
    # series stage's claim holds with it: the row reduction with every
    # predicted value pinned raises exactly when verification fails
    result, rec = _roundtrip_case(case)
    count = ROUNDTRIP_ROWS + rec.order
    idx = data.draw(st.integers(0, count))
    old = result.predicted_series.coeffs[idx]
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    value = data.draw(st.sampled_from([Fraction(0), old * 2]) | small)
    verdicts = []
    for candidate in (result, _with_coefficient(result, idx, value)):
        predicted = candidate.predicted_series
        verdicts.append(verify_recurrence(rec, predicted, ROUNDTRIP_ROWS).exact)
        try:
            RowReduction(rec, count, dict(enumerate(predicted.coeffs[: count + 1])))
            solved = True
        except InconsistentSystemError:
            solved = False
        assert solved is verdicts[-1], (idx, value)
    # an uncorrupted construction passes; the zero-lead equation fails it
    assert verdicts[0] is (case != "zero-lead")


def test_a_prediction_shorter_than_the_rows_is_rejected():
    # the check used to re-predict the series from q and p, checking another one than given
    result = construct_equation(1, 2)
    short = SeriesSolution.from_values(result.predicted_series.coeffs[:150])
    with pytest.raises(InsufficientDataError, match="needs 203 predicted coefficients, have 150"):
        roundtrip_check(_rebuilt(result, predicted_series=short))


def _detail(report, name):
    return next(detail for stage, _, detail in report.stages if stage == name)


def test_a_value_only_the_last_rows_reach_fails_both_stages():
    # a_{ROUNDTRIP_ROWS + order} enters row ROUNDTRIP_ROWS alone; the pinned
    # solve runs to that index, so the series stage sees the corruption too
    result = construct_equation(1, 2)
    rec = derive_recurrence(result.canonical)
    idx = ROUNDTRIP_ROWS + rec.order
    corrupted = _with_coefficient(result, idx, result.predicted_series.coeffs[idx] * 2)
    report = roundtrip_check(corrupted)
    assert report.ok is False
    assert _stage(report, "recurrence") is False and _stage(report, "series") is False
    verdict = verify_recurrence(rec, corrupted.predicted_series, ROUNDTRIP_ROWS)
    assert verdict.first_failing_row == ROUNDTRIP_ROWS and verdict.max_residual > 0
    assert _detail(report, "recurrence") == f"max residual {verdict.max_residual}"


def test_the_largest_admitted_one_over_p_is_built_and_checked_within_the_deadline():
    # about 5 s on a shared 2-vCPU host; rows reach index ROUNDTRIP_ROWS + p,
    # past the window span 2p.  Its pins reach 1/10100!, 36 060 digits, past
    # the interpreter's default int string limit, which nothing here may need
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with deadline(30):
            result = construct_equation(1, MAX_ORDER_DENOMINATOR)
            report = roundtrip_check(result)
    finally:
        sys.set_int_max_str_digits(previous)
    assert report.ok, report.stages
    assert derive_recurrence(result.canonical).span == 2 * MAX_ORDER_DENOMINATOR


def test_a_denominator_above_the_limit_is_rejected_before_any_work():
    with deadline(5):
        for q, p in ((1, MAX_ORDER_DENOMINATOR + 1), (1, 10**9), (10**9 - 1, 10**9)):
            with pytest.raises(InvalidOrderError, match="exceeds the limit"):
                construct_equation(q, p)
