import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    DifferenceEquation,
    Poly,
    SeriesSolution,
    apply_operator,
    compose_operators,
    delta_to_shift,
    normalize_to_delta,
    parse_equation,
)
from deltaorder.errors import DegenerateEquationError, InsufficientDataError
from deltaorder.polynomials import binomial, falling_factorial, to_falling_basis

from fixtures_equations import (
    CUBIC_THIRD,
    L3_TEXT,
    L5_TEXT,
    L8_COEFFS,
    QUARTIC_34,
    QUARTIC_34_SHIFT_TABLE,
    QUARTIC_34_SHIFTED,
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


def test_canonical_scaling_clears_denominators():
    eq = normalize_to_delta(parse_equation("1/2 D^2 f(z) + 1/3 f(z) = 0"))
    assert eq.coeffs == (Poly([2]), Poly(), Poly([3]))


def test_delta_to_shift_quartic_display():
    eq = normalize_to_delta(parse_equation(QUARTIC_34))
    table = {t.shift: t.coefficient for t in delta_to_shift(eq).terms}
    for shift, coeffs in QUARTIC_34_SHIFT_TABLE.items():
        assert table[shift] == Poly(coeffs)


def test_delta_to_shift_single_difference():
    eq = normalize_to_delta(parse_equation("D f(z) - f(z) = 0"))
    table = {t.shift: t.coefficient for t in delta_to_shift(eq).terms}
    assert table == {1: Poly([1]), 0: Poly([-2])}


def test_shift_round_trip_random():
    rng = random.Random(21)
    for _ in range(100):
        coeffs = [random_poly(rng, 4) for _ in range(rng.randint(1, 5))]
        coeffs.append(random_poly(rng, 4, allow_zero=False))
        eq = DifferenceEquation(coeffs)
        assert normalize_to_delta(delta_to_shift(eq)) == eq


def test_compose_difference_squares():
    delta = normalize_to_delta(parse_equation("D f(z) + 0 f(z) = 0"))
    assert compose_operators(delta, delta).coeffs == (Poly(), Poly(), Poly([1]))


def test_compose_with_multiplication_by_z():
    # D (z f) = (z+1) D f + f, checked both symbolically and pointwise
    composed = compose_operators([Poly(), Poly([1])], [Poly([0, 1])])
    assert composed.coeffs == (Poly([1]), Poly([1, 1]))
    from deltaorder import iterated_delta

    rng = random.Random(5)
    for _ in range(5):
        p = random_poly(rng, 4, allow_zero=False)
        direct = iterated_delta(Poly([0, 1]) * p, 1)
        via = Poly([1, 1]) * iterated_delta(p, 1) + p
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
    from deltaorder import iterated_delta

    def apply_to_poly(eq, p):
        total = Poly()
        for j, coeff in enumerate(eq.coeffs):
            total = total + coeff * iterated_delta(p, j)
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
    expected = [Fraction(0)] * (upto + 1)
    for j, p in enumerate(eq.coeffs):
        for t, coeff_t in enumerate(to_falling_basis(p)):
            for k in range(t + 1):
                for n, a in enumerate(coeffs):
                    if 0 <= n + t - k - j <= upto:
                        term = coeff_t * binomial(t, k) * a * falling_factorial(n + rho, j + k)
                        expected[n + t - k - j] += term
    assert apply_operator(eq, SeriesSolution.from_values(coeffs, rho=rho), upto) == expected
