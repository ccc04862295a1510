import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    DifferenceEquation,
    GeneralForm,
    OperatorTerm,
    Poly,
    SeriesSolution,
    apply_operator,
    compose_operators,
    format_delta_form,
    normalize_to_delta,
    parse_equation,
    poly_delta,
)
from deltaorder.errors import DegenerateEquationError, InsufficientDataError

from fixtures_equations import (
    CUBIC_THIRD,
    L3_TEXT,
    L5_TEXT,
    L8_COEFFS,
    QUARTIC_34,
    QUARTIC_34_SHIFT_TABLE,
    QUARTIC_34_SHIFTED,
    apply_operator_oracle,
    binomial,
    pure_shift_form,
    quartic_34_stream,
    random_equation,
    random_poly,
    third_order_stream,
)


def test_normalize_trivial_shift():
    eq = normalize_to_delta(parse_equation("f(z+1) - f(z) = 0"))
    assert eq.coeffs == (Poly(), Poly([1]))


def test_normalize_recenters_negative_shifts():
    eq = normalize_to_delta(parse_equation(QUARTIC_34_SHIFTED))
    expected = normalize_to_delta(parse_equation(QUARTIC_34))
    assert eq == expected
    assert eq.coeffs[4] == Poly([3640, 4656, 1920, 256])
    assert eq.coeffs[3] == Poly([1944, 1760, 384])
    assert eq.coeffs[2] == Poly([-120, -80])
    assert eq.coeffs[1] == Poly([-446, -405, -81])
    assert eq.coeffs[0] == Poly([-486, -405, -81])


def test_normalize_degenerate_cancellation():
    with pytest.raises(DegenerateEquationError):
        normalize_to_delta(parse_equation("f(z) - f(z) = 0"))


def test_normalize_order_zero_is_degenerate():
    with pytest.raises(DegenerateEquationError):
        normalize_to_delta(parse_equation("f(z) = 0"))


def test_normalize_recenters_on_the_shifts_that_survive_cancellation():
    # the cancelling pair at z-1 must not move the origin: recentering on the
    # raw shifts gives D^2 f(z) + D f(z) = 0, which is D applied to f(z+1)
    eq = normalize_to_delta(parse_equation("f(z-1) - f(z-1) + D f(z) = 0"))
    assert eq == DifferenceEquation([Poly(), Poly([1])])
    assert format_delta_form(eq) == "D f(z) = 0"
    # here the two terms at z-1 cancel only as pure shifts
    eq = normalize_to_delta(parse_equation("D f(z-1) + f(z-1) + D f(z) = 0"))
    assert format_delta_form(eq) == "D f(z) + f(z) = 0"


def _shift_table_fold(g: GeneralForm) -> DifferenceEquation:
    """The pure-shift route: expand into f(z+s), recenter, fold back."""
    table: dict[int, Poly] = {}
    for term in g.terms:
        if term.coefficient.is_zero:
            continue
        k, s = term.delta_power, term.shift
        for t in range(k + 1):
            c = term.coefficient * ((-1) ** (k - t) * binomial(k, t))
            table[s + t] = table.get(s + t, Poly()) + c
    table = {s: c for s, c in table.items() if not c.is_zero}
    if not table:
        raise DegenerateEquationError("all operator terms cancel")
    recenter = -min(table)
    if recenter > 0:
        table = {s + recenter: c.shifted(recenter) for s, c in table.items()}
    out = [Poly() for _ in range(max(table) + 1)]
    for s, c in table.items():
        for j in range(s + 1):
            out[j] = out[j] + c * binomial(s, j)
    return DifferenceEquation(out)


_term_coefficients = st.lists(st.integers(-4, 4), max_size=3).map(Poly)
_terms = st.builds(
    OperatorTerm,
    coefficient=_term_coefficients,
    delta_power=st.integers(0, 3),
    shift=st.integers(-3, 3),
)


@st.composite
def _general_forms(draw):
    """Terms with negative shifts, plus negated copies that cancel them.

    A copy is either the same term negated or its pure-shift expansion
    negated, so some terms cancel only after expansion.
    """
    terms = draw(st.lists(_terms, min_size=1, max_size=4))
    for term in draw(st.lists(st.sampled_from(terms), max_size=3)):
        k = term.delta_power
        if draw(st.booleans()):
            terms.append(OperatorTerm(-term.coefficient, k, term.shift))
            continue
        for t in range(k + 1):
            weight = (-1) ** (k - t + 1) * binomial(k, t)
            terms.append(OperatorTerm(term.coefficient * weight, 0, term.shift + t))
    return GeneralForm(tuple(draw(st.permutations(terms))))


@settings(max_examples=200, deadline=None)
@given(g=_general_forms())
def test_normalize_to_delta_matches_the_shift_table_fold(g):
    try:
        expected = _shift_table_fold(g)
    except DegenerateEquationError as exc:
        with pytest.raises(DegenerateEquationError, match=re.escape(str(exc))):
            normalize_to_delta(g)
        return
    assert normalize_to_delta(g) == expected


def test_canonical_scaling_clears_denominators():
    eq = normalize_to_delta(parse_equation("1/2 D^2 f(z) + 1/3 f(z) = 0"))
    assert eq.coeffs == (Poly([2]), Poly(), Poly([3]))


def test_delta_to_shift_quartic_display():
    # the pure-shift display of QUARTIC_34 normalizes back to its Delta-form
    eq = normalize_to_delta(parse_equation(QUARTIC_34))
    display = {s: Poly(coeffs) for s, coeffs in QUARTIC_34_SHIFT_TABLE.items()}
    assert normalize_to_delta(GeneralForm(tuple(OperatorTerm(c, 0, s) for s, c in display.items()))) == eq
    assert {t.shift: t.coefficient for t in pure_shift_form(eq).terms} == display


def test_delta_to_shift_single_difference():
    eq = normalize_to_delta(parse_equation("D f(z) - f(z) = 0"))
    shifts = GeneralForm((OperatorTerm(Poly([1]), 0, 1), OperatorTerm(Poly([-2]), 0, 0)))
    assert normalize_to_delta(shifts) == eq
    assert {t.shift: t.coefficient for t in pure_shift_form(eq).terms} == {1: Poly([1]), 0: Poly([-2])}


def test_shift_round_trip_random():
    rng = random.Random(21)
    for _ in range(100):
        coeffs = [random_poly(rng, 4) for _ in range(rng.randint(1, 5))]
        coeffs.append(random_poly(rng, 4, allow_zero=False))
        eq = DifferenceEquation(coeffs)
        assert normalize_to_delta(pure_shift_form(eq)) == eq


def test_compose_difference_squares():
    delta = normalize_to_delta(parse_equation("D f(z) + 0 f(z) = 0"))
    assert compose_operators(delta, delta).coeffs == (Poly(), Poly(), Poly([1]))


def test_compose_with_multiplication_by_z():
    # D (z f) = (z+1) D f + f, checked both symbolically and pointwise
    composed = compose_operators([Poly(), Poly([1])], [Poly([0, 1])])
    assert composed.coeffs == (Poly([1]), Poly([1, 1]))

    rng = random.Random(5)
    for _ in range(5):
        p = random_poly(rng, 4, allow_zero=False)
        direct = poly_delta(Poly([0, 1]) * p)
        via = Poly([1, 1]) * poly_delta(p) + p
        assert direct == via


def test_compose_reproduces_ninth_order_display():
    outer = normalize_to_delta(parse_equation(L3_TEXT))
    inner = normalize_to_delta(parse_equation(L5_TEXT))
    composed = compose_operators(outer, inner)
    assert composed.order == 8
    for j, coeffs in enumerate(L8_COEFFS):
        assert composed.coeffs[j] == Poly(coeffs)


def test_compose_associative_random():
    rng = random.Random(22)
    for _ in range(20):
        def eq():
            cs = [random_poly(rng, 2) for _ in range(rng.randint(1, 3))]
            cs.append(random_poly(rng, 2, allow_zero=False))
            return DifferenceEquation(cs)

        a, b, c = eq(), eq(), eq()
        assert compose_operators(compose_operators(a, b), c) == compose_operators(
            a, compose_operators(b, c)
        )


def test_compose_agrees_with_pointwise_application():
    rng = random.Random(23)

    def apply_to_poly(eq, p):
        total = Poly()
        for coeff in eq.coeffs:  # coeff * Delta^j p, with p differenced once per power
            total = total + coeff * p
            p = poly_delta(p)
        return total

    for _ in range(15):
        cs_a = [random_poly(rng, 2) for _ in range(2)]
        cs_a.append(random_poly(rng, 2, allow_zero=False))
        cs_b = [random_poly(rng, 2) for _ in range(2)]
        cs_b.append(random_poly(rng, 2, allow_zero=False))
        a, b = DifferenceEquation(cs_a), DifferenceEquation(cs_b)
        composed = compose_operators(a, b)
        test_fn = random_poly(rng, 4, allow_zero=False)
        direct = apply_to_poly(a, apply_to_poly(b, test_fn))
        via_composed = apply_to_poly(composed, test_fn)
        # composition rescales canonically; compare up to that factor
        if direct.is_zero:
            assert via_composed.is_zero
        else:
            ratio = via_composed.leading_coefficient / direct.leading_coefficient
            assert via_composed == direct * ratio


def test_apply_operator_annihilates_cubic_third_stream():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    sol = SeriesSolution.from_values(third_order_stream(60))
    image = apply_operator(eq, sol, 50)
    assert all(v == 0 for v in image)


def test_apply_operator_annihilates_quartic_stream():
    eq = normalize_to_delta(parse_equation(QUARTIC_34))
    sol = SeriesSolution.from_values(quartic_34_stream(70))
    image = apply_operator(eq, sol, 60)
    assert all(v == 0 for v in image)


def test_apply_operator_zero_series():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    sol = SeriesSolution.from_values([0] * 40)
    assert all(v == 0 for v in apply_operator(eq, sol, 30))


def test_apply_operator_nonsolution_is_nonzero():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    sol = SeriesSolution.from_values([Fraction(1)] * 40)
    assert any(v != 0 for v in apply_operator(eq, sol, 20))


def test_apply_operator_requires_enough_coefficients():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    sol = SeriesSolution.from_values(third_order_stream(10))
    with pytest.raises(InsufficientDataError):
        apply_operator(eq, sol, 50)


def test_apply_compose_consistency():
    rng = random.Random(24)
    for _ in range(10):
        def eq():
            cs = [random_poly(rng, 2) for _ in range(2)]
            cs.append(random_poly(rng, 2, allow_zero=False))
            return DifferenceEquation(cs)

        a, b = eq(), eq()
        f = SeriesSolution.from_values(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(40)]
        )
        lhs = apply_operator(compose_operators(a, b), f, 20)
        g = SeriesSolution.from_values(apply_operator(b, f, 30))
        rhs = apply_operator(a, g, 20)
        nonzero = [(l, r) for l, r in zip(lhs, rhs) if l != 0 or r != 0]
        if not nonzero:
            continue
        ratio = nonzero[0][0] / nonzero[0][1]
        assert all(l == ratio * r for l, r in nonzero)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    rho=st.sampled_from([Fraction(0), Fraction(3, 2), Fraction(7, 3)]),
)
def test_apply_operator_matches_fraction_sum(seed, rho):
    # the product-rule expansion term by term, in Fractions
    rng = random.Random(seed)
    eq = random_equation(rng, max_order=3, max_degree=3)
    upto = 12
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(upto + eq.order + 1)]
    expected = apply_operator_oracle(eq, coeffs, rho, upto)
    assert apply_operator(eq, SeriesSolution.from_values(coeffs, rho=rho), upto) == expected
