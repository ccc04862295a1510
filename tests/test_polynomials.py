import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    NEG_INF,
    Poly,
    falling_factorial,
    falling_power_eval,
    falling_product_expand,
    from_falling_basis,
    iterated_delta,
    poly_delta,
    to_falling_basis,
)
from deltaorder.errors import GammaPoleError
from deltaorder.polynomials import (
    _falling_power_mp,
    common_denominator,
    expand_newton,
    falling_factorial_poly,
    format_poly,
)

from fixtures_equations import random_poly


def test_zero_polynomial_degree_sentinel():
    zero = Poly()
    assert zero.is_zero
    assert zero.degree == NEG_INF
    assert zero.degree < -(10**9)
    assert max(zero.degree, 3) == 3


def test_poly_arithmetic_and_eval():
    p = Poly([15, 19, 6])
    q = Poly([1, 1])
    assert (p + q) == Poly([16, 20, 6])
    assert (p * q).degree == 3
    assert p(Fraction(1, 2)) == Fraction(15) + Fraction(19, 2) + Fraction(6, 4)
    assert p(2 + 1j) == 15 + 19 * (2 + 1j) + 6 * (2 + 1j) ** 2
    assert p.shifted(1) == Poly([40, 31, 6])


def test_poly_delta_quadratic():
    assert poly_delta(Poly([0, 0, 1])) == Poly([1, 2])


def test_poly_delta_constant_is_zero():
    assert poly_delta(Poly([5])).is_zero


def test_poly_delta_drops_degree_by_one():
    rng = random.Random(1)
    for _ in range(30):
        p = random_poly(rng, 6, allow_zero=False)
        if p.degree == 0:
            continue
        assert poly_delta(p).degree == p.degree - 1


def test_delta_falling_power_rule():
    for n in range(1, 7):
        assert poly_delta(falling_factorial_poly(n)) == falling_factorial_poly(n - 1) * n


def test_iterated_delta():
    p = Poly([15, 19, 6])
    assert iterated_delta(Poly([0, 0, 1]), 2) == Poly([2])
    assert iterated_delta(p, 0) == p
    assert iterated_delta(p, 3).is_zero


def test_delta_is_additive_and_leibniz():
    rng = random.Random(2)
    for _ in range(25):
        p = random_poly(rng, 5)
        q = random_poly(rng, 5)
        assert poly_delta(p + q) == poly_delta(p) + poly_delta(q)
        assert poly_delta(p * q) == p.shifted(1) * poly_delta(q) + poly_delta(p) * q


def test_falling_basis_of_square():
    assert to_falling_basis(Poly([0, 0, 1])) == [Fraction(0), Fraction(1), Fraction(1)]


def test_falling_power_in_monomials():
    assert falling_factorial_poly(2) == Poly([0, -1, 1])
    assert from_falling_basis([0, 0, 1]) == Poly([0, -1, 1])


def test_falling_basis_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        p = random_poly(rng, 8)
        assert from_falling_basis(to_falling_basis(p)) == p
    for _ in range(20):
        p = random_poly(rng, 12)
        assert from_falling_basis(to_falling_basis(p)) == p


def test_falling_product_expand_one():
    rho = Fraction(5, 7)
    expansion = falling_product_expand(1, rho)
    assert expansion.terms == ((Fraction(1), 1), (rho, 0))


def test_falling_product_expand_integer_offset_truncates():
    expansion = falling_product_expand(2, 0)
    assert expansion.terms == ((Fraction(1), 2), (Fraction(0), 1), (Fraction(0), 0))


def test_falling_product_expand_pascal_step():
    # the coefficients for m+1 follow from those for m by
    # c_{m+1}(j) = c_m(j) + (rho - (j-1)) * c_m(j-1)
    rng = random.Random(4)
    for _ in range(30):
        m = rng.randint(0, 6)
        rho = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        small = {
            offset: coeff for coeff, offset in falling_product_expand(m, rho).terms
        }
        for coeff, offset in falling_product_expand(m + 1, rho).terms:
            j = m + 1 - offset
            expect = Fraction(0)
            if j <= m:
                expect += small[m - j]
            if j >= 1:
                expect += small[m - (j - 1)] * (rho - (j - 1))
            assert coeff == expect


def test_falling_product_expand_matches_gamma_eval():
    rho = Fraction(1, 2)
    expansion = falling_product_expand(3, rho)
    for z in (2.3, 5 + 1j):
        direct = falling_power_eval(z, 3) * falling_power_eval(z, rho)
        expanded = expansion.evaluate(z)
        assert abs(expanded - direct) / abs(direct) < 1e-9


def test_falling_power_integer_cases():
    assert falling_power_eval(5, 2) == 20
    assert falling_power_eval(17.25, 0) == 1
    assert falling_power_eval(1 + 1j, 0) == 1
    for n in range(0, 21):
        for k in range(0, n + 1):
            exact = 1
            for u in range(k):
                exact *= n - u
            assert falling_power_eval(n, k) == exact


def test_falling_power_difference_rule_general_exponent():
    z, rho = 3.7, Fraction(1, 3)
    lhs = falling_power_eval(z + 1, rho) - falling_power_eval(z, rho)
    rhs = complex(rho) * falling_power_eval(z, rho - 1)
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_falling_power_gamma_pole():
    with pytest.raises(GammaPoleError):
        falling_power_eval(-1, Fraction(1, 2))
    # z+1-rho = -1: the reciprocal gamma vanishes, so the falling power is zero
    assert falling_power_eval(Fraction(1, 2), Fraction(5, 2)) == 0
    with pytest.raises(GammaPoleError):
        falling_power_eval(-2 + 0j, Fraction(1, 3))  # z+1 = -1


def test_falling_power_mp_points_keep_precision():
    # an mp point next to a pole is no pole: only an exact one counts
    with mpmath.workprec(200):
        near = mpmath.mpc(-2, mpmath.mpf(10) ** -40)
        value = _falling_power_mp(near, Fraction(1, 2))
        assert mpmath.isfinite(value) and abs(value) > 10**30
        with pytest.raises(GammaPoleError):
            _falling_power_mp(mpmath.mpc(-2, 0), Fraction(1, 2))


def test_falling_factorial_exact_values():
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(7, 3) == 210
    assert falling_factorial(3, 5) == 0


def test_format_poly():
    assert format_poly(Poly([15, 19, 6])) == "6z^2 + 19z + 15"
    assert format_poly(Poly([Fraction(-1, 2), 0, 1])) == "z^2 - 1/2"
    assert format_poly(Poly()) == "0"


# --- the Newton-form kernel against products of linear factors ---------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
offsets = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction), rationals)
# empty (the zero polynomial), constants and trailing zeros included
coefficient_lists = st.lists(rationals, max_size=9)


def _product_oracle(coeffs, nodes) -> Poly:
    total, basis = Poly(), Poly([1])
    for c, x in zip(coeffs, nodes):
        total = total + basis * c
        basis = basis * Poly([-x, 1])
    return total


def test_common_denominator():
    assert common_denominator([Fraction(1, 2), Fraction(-2, 3), 4]) == (6, [3, -4, 24])
    assert common_denominator([]) == (1, [])


def test_expand_newton_needs_enough_nodes():
    with pytest.raises(ValueError):
        expand_newton([1, 2, 3], [0])
    assert expand_newton([5, 0, 0], []) == Poly([5])


@settings(max_examples=150, deadline=None)
@given(coeffs=coefficient_lists, nodes=st.lists(rationals, min_size=9, max_size=9))
def test_expand_newton_matches_the_product_form(coeffs, nodes):
    assert expand_newton(coeffs, nodes) == _product_oracle(coeffs, nodes)


@settings(max_examples=150, deadline=None)
@given(coeffs=coefficient_lists, offset=offsets)
def test_falling_forms_match_falling_factorial_polys(coeffs, offset):
    oracle = Poly()
    for u, c in enumerate(coeffs):
        oracle = oracle + falling_factorial_poly(u, offset) * c
    nodes = [k - offset for k in range(len(coeffs))]
    assert expand_newton(coeffs, nodes) == oracle
    if offset == 0:
        assert from_falling_basis(coeffs) == oracle


@settings(max_examples=150, deadline=None)
@given(coeffs=coefficient_lists, a=offsets, b=offsets, x=rationals)
def test_shift_is_substitution_and_composes(coeffs, a, b, x):
    p = Poly(coeffs)
    assert p.shifted(a)(x) == p(x + a)
    assert p.shifted(a).shifted(b) == p.shifted(a + b)
    assert p.shifted(a).degree == p.degree


@settings(max_examples=150, deadline=None)
@given(coeffs=coefficient_lists)
def test_to_falling_basis_inverts_the_falling_form(coeffs):
    p = Poly(coeffs)
    falling = to_falling_basis(p)
    total = Poly()
    for t, c in enumerate(falling):
        total = total + falling_factorial_poly(t) * c
    assert total == p
    assert len(falling) == len(p.coeffs)
    assert from_falling_basis(falling) == p
