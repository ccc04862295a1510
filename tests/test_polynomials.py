import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import NEG_INF, Poly, poly_delta, polynomials
from deltaorder.errors import GammaPoleError
from deltaorder.evaluation import _falling_power_mp
from deltaorder.polynomials import (
    CHAIN_SLACK_BITS,
    _integer_falling_basis,
    _newton_poly,
    common_denominator,
    chain_sum,
    denominator_chain,
    format_poly,
    format_rational,
)

from fixtures_equations import (
    exact_magnitudes,
    falling_factorial_poly,
    falling_power,
    falling_product_sum,
    int_digit_limit,
    random_poly,
    stream_denominators,
    to_falling_basis,
)


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


def test_delta_is_additive_and_leibniz():
    rng = random.Random(2)
    for _ in range(25):
        p = random_poly(rng, 5)
        q = random_poly(rng, 5)
        assert poly_delta(p + q) == poly_delta(p) + poly_delta(q)
        assert poly_delta(p * q) == p.shifted(1) * poly_delta(q) + poly_delta(p) * q


def test_falling_basis_of_square():
    assert _integer_falling_basis(Poly([0, 0, 1])) == [0, 1, 1]


def test_falling_power_in_monomials():
    assert falling_factorial_poly(2) == Poly([0, -1, 1])
    assert _newton_poly(1, [0, 0, 1], 1, range(2)) == Poly([0, -1, 1])


def test_falling_basis_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        p = random_poly(rng, 8)
        assert _expand_newton(_integer_falling_basis(p), range(9)) == p
    for _ in range(20):
        p = random_poly(rng, 12)
        assert _expand_newton(_integer_falling_basis(p), range(13)) == p


def test_falling_product_expand_matches_gamma_eval():
    rho = Fraction(1, 2)
    for z in (2.3, 5 + 1j):
        direct = falling_power(z, 3) * falling_power(z, rho)
        expanded = falling_product_sum(z, 3, rho)
        assert abs(expanded - direct) / abs(direct) < 1e-9


def test_falling_power_integer_cases():
    assert falling_power(5, 2) == 20
    assert falling_power(17.25, 0) == 1
    assert falling_power(1 + 1j, 0) == 1
    for n in range(0, 21):
        for k in range(0, n + 1):
            exact = 1
            for u in range(k):
                exact *= n - u
            assert falling_power(n, k) == exact


def test_falling_power_difference_rule_general_exponent():
    z, rho = 3.7, Fraction(1, 3)
    lhs = falling_power(z + 1, rho) - falling_power(z, rho)
    rhs = complex(rho) * falling_power(z, rho - 1)
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_falling_power_gamma_pole():
    with pytest.raises(GammaPoleError):
        falling_power(-1, Fraction(1, 2))
    # z+1-rho = -1: the reciprocal gamma vanishes, so the falling power is zero
    assert falling_power(Fraction(1, 2), Fraction(5, 2)) == 0
    with pytest.raises(GammaPoleError):
        falling_power(-2 + 0j, Fraction(1, 3))  # z+1 = -1


def test_falling_power_mp_points_keep_precision():
    # an mp point next to a pole is no pole: only an exact one counts
    with mpmath.workprec(200):
        near = mpmath.mpc(-2, mpmath.mpf(10) ** -40)
        value = _falling_power_mp(near, Fraction(1, 2))
        assert mpmath.isfinite(value) and abs(value) > 10**30
        with pytest.raises(GammaPoleError):
            _falling_power_mp(mpmath.mpc(-2, 0), Fraction(1, 2))


def test_format_poly():
    assert format_poly(Poly([15, 19, 6])) == "6z^2 + 19z + 15"
    assert format_poly(Poly([Fraction(-1, 2), 0, 1])) == "z^2 - 1/2"
    assert format_poly(Poly()) == "0"


@settings(max_examples=300, deadline=None)
@given(num=exact_magnitudes, negative=st.booleans(), den=exact_magnitudes.filter(bool))
def test_format_rational_matches_str_at_the_default_digit_limit(num, negative, den):
    # str() runs with the limit lifted, format_rational under CPython's default
    value = -Fraction(num, den) if negative else Fraction(num, den)
    integer = -num if negative else num
    with int_digit_limit(0):
        want, want_int = str(value), str(integer)
    with int_digit_limit(4300):
        got, got_int = format_rational(value), format_rational(integer)
    assert (got, got_int) == (want, want_int)


# --- the Newton-form kernel against products of linear factors ---------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
offsets = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction), rationals)
# empty (the zero polynomial), constants and trailing zeros included
coefficient_lists = st.lists(rationals, max_size=9)


def _expand_newton(coeffs, nodes) -> Poly:
    """sum_u c_u (z - x_0)...(z - x_{u-1}) by ``_newton_poly``, on the integer lists it takes."""
    scale, ints = common_denominator(coeffs)
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return Poly()
    step, xs = common_denominator(nodes[: len(ints) - 1])
    return _newton_poly(scale, ints, step, xs)


def _product_oracle(coeffs, nodes) -> Poly:
    total, basis = Poly(), Poly([1])
    for c, x in zip(coeffs, nodes):
        total = total + basis * c
        basis = basis * Poly([-x, 1])
    return total


def test_common_denominator():
    assert common_denominator([Fraction(1, 2), Fraction(-2, 3), 4]) == (6, [3, -4, 24])
    assert common_denominator([]) == (1, [])


@settings(max_examples=150, deadline=None)
@given(coeffs=coefficient_lists, nodes=st.lists(rationals, min_size=9, max_size=9))
def test_expand_newton_matches_the_product_form(coeffs, nodes):
    assert _expand_newton(coeffs, nodes) == _product_oracle(coeffs, nodes)


@settings(max_examples=150, deadline=None)
@given(coeffs=coefficient_lists, offset=offsets)
def test_falling_forms_match_falling_factorial_polys(coeffs, offset):
    oracle = Poly()
    for u, c in enumerate(coeffs):
        oracle = oracle + falling_factorial_poly(u, offset) * c
    nodes = [k - offset for k in range(len(coeffs))]
    assert _expand_newton(coeffs, nodes) == oracle
    if offset == 0:
        assert _expand_newton(coeffs, range(len(coeffs))) == oracle


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
    if p.den != 1:
        with pytest.raises(ArithmeticError):
            _integer_falling_basis(p)
    p = Poly._from_ints(p.nums)  # the integer polynomial den * p
    falling = _integer_falling_basis(p)
    assert falling == to_falling_basis(p)
    total = Poly()
    for t, c in enumerate(falling):
        total = total + falling_factorial_poly(t) * c
    assert total == p
    assert len(falling) == len(p.coeffs)
    assert _expand_newton(falling, range(len(falling))) == p


# --- integer-backed arithmetic against a plain Fraction-list oracle -----------

scalars = st.one_of(st.integers(-30, 30), rationals)


def _trimmed(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _list_add(a, b):
    a, b = list(a), list(b)
    size = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(size)]


def _list_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _list_shift(a, offset):
    # sum_k a_k (z + offset)^k, expanded by the binomial theorem
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * Fraction(offset) ** (k - j)
    return out


def _list_eval(a, x):
    return sum((c * Fraction(x) ** k for k, c in enumerate(a)), Fraction(0))


def _assert_canonical(p: Poly, expected):
    assert list(p.coeffs) == _trimmed(expected)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    same = Poly(_trimmed(expected))
    assert p == same and hash(p) == hash(same)


@settings(max_examples=150, deadline=None)
@given(
    a=coefficient_lists,
    b=coefficient_lists,
    c=scalars,
    e=st.integers(0, 4),
    offset=offsets,
    x=rationals,
)
def test_poly_arithmetic_matches_a_fraction_list_oracle(a, b, c, e, offset, x):
    p, q = Poly(a), Poly(b)
    _assert_canonical(p, a)
    _assert_canonical(p + q, _list_add(a, b))
    _assert_canonical(p - q, _list_add(a, [-y for y in b]))
    _assert_canonical(p * q, _list_mul(a, b))
    _assert_canonical(p * c, [y * c for y in a])
    _assert_canonical(c * p, [y * c for y in a])
    _assert_canonical(p + c, _list_add(a, [c]))
    _assert_canonical(c - p, _list_add([c], [-y for y in a]))
    power = [Fraction(1)]
    for _ in range(e):
        power = _list_mul(power, _trimmed(a))
    _assert_canonical(p**e, power)
    _assert_canonical(p.shifted(offset), _list_shift(_trimmed(a), offset))
    assert p(x) == _list_eval(a, x)
    if p.is_zero:
        assert _trimmed(a) == []
    else:
        assert p.leading_coefficient == _trimmed(a)[-1]


def test_values_built_different_ways_are_equal():
    half = Poly([Fraction(1, 2)])
    assert half * 2 == Poly([1]) and hash(half * 2) == hash(Poly([1]))
    assert Poly(["1/2", 0, 0]) == half == Fraction(1, 2)
    assert Poly([2, 4]) * Fraction(1, 2) == Poly([1, 2])
    assert (Poly([2, 4]).den, Poly([2, 4]).nums) == (1, (2, 4))
    mixed = Poly([Fraction(1, 2), Fraction(1, 3)])
    assert (mixed.den, mixed.nums) == (6, (3, 2))
    zero = Poly([0, Fraction(0)]) * Fraction(7, 3)
    assert (zero.den, zero.nums, zero.coeffs) == (1, (), ())
    assert Poly([3, 1]) - Poly([3, 1]) == Poly() and hash(Poly([1, 1]) - Poly([1, 1])) == hash(Poly())
    assert (Poly([-1, 1]) ** 3).shifted(1) == Poly([0, 0, 0, 1])


def _repeated_product(base: Poly, exponent: int) -> Poly:
    out = Poly([1])
    for _ in range(exponent):
        out = out * base
    return out


@settings(max_examples=150, deadline=None)
@given(
    c=st.one_of(st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]), rationals),
    k=st.integers(0, 6),
    e=st.integers(0, 12),
    general=coefficient_lists,
)
def test_closed_form_powers_match_repeated_products(c, k, e, general):
    # monomials c z^k, with zero, unit, negative and rational c, take the
    # closed form; general polynomials take repeated squaring
    for base in (Poly([0] * k + [c]), Poly(general)):
        power = base**e
        assert power == _repeated_product(base, e)
        assert power.den > 0 and math.gcd(power.den, *power.nums) == 1
        assert not power.nums or power.nums[-1] != 0
    monomial = Poly([0] * k + [c]) ** e
    assert monomial == Poly([0] * (k * e) + [c**e])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_denominator_chain_is_the_lcm_of_each_segment(data):
    dens = data.draw(stream_denominators(data.draw(st.integers(1, 30))))
    common, step, scale = chain = denominator_chain(dens)
    assert len(common) == len(step) == len(scale) == len(dens)
    # built in pieces, as the solver extends it, it is the same chain
    cut = data.draw(st.integers(0, len(dens)))
    assert denominator_chain(dens[cut:], denominator_chain(dens[:cut])) == chain
    starts = [i for i, q in enumerate(step) if not q] + [len(step)]
    for start, end in zip(starts, starts[1:]):
        rebuilt = common[start]
        for i in range(start, end):
            assert common[i] == math.lcm(*[d for d in dens[start : i + 1] if d])
            if i > start:
                rebuilt *= step[i]
            assert rebuilt == common[i]
            assert scale[i] * dens[i] == (common[i] if dens[i] else 0)
            # no common passes twice its denominator's bits plus the slack
            if dens[i]:
                assert common[i].bit_length() <= 2 * dens[i].bit_length() + CHAIN_SLACK_BITS
        # a segment starts only where the running lcm would have passed that
        if start and dens[start]:
            lcm = math.lcm(common[start - 1], dens[start])
            assert lcm.bit_length() > 2 * dens[start].bit_length() + CHAIN_SLACK_BITS
    # a nested denominator is its common, the same object
    for i in range(1, len(dens)):
        if dens[i] and step[i] and dens[i] % common[i - 1] == 0:
            assert common[i] is dens[i] and scale[i] == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chain_sum_matches_the_fraction_sum(data):
    # rows of constants with negative weights, zero numerators, zero values
    # (whose scale 0 drops even a nonzero numerator) and rows that cross
    # segment starts
    dens = data.draw(stream_denominators(data.draw(st.integers(1, 30))))
    chain = denominator_chain(dens)
    nums = data.draw(st.lists(st.one_of(st.just(0), st.integers(-(10**30), 10**30)), min_size=len(dens), max_size=len(dens)))
    lo = data.draw(st.integers(0, len(dens) - 1))
    hi = data.draw(st.integers(lo, min(lo + 8, len(dens) - 1)))
    terms = [(i, data.draw(st.integers(-50, 50))) for i in range(lo, hi + 1) if data.draw(st.booleans())]
    common, total = chain_sum(chain, terms, nums)
    assert Fraction(total, common) == sum((Fraction(c * nums[i], dens[i]) for i, c in terms if dens[i]), Fraction(0))
    # the common is a multiple of every denominator summed and is set by the
    # first and last index, so the solver's columns over one row share it
    assert all(common % dens[i] == 0 for i, _ in terms if dens[i])
    if terms:
        first, last = terms[0][0], terms[-1][0]
        assert chain_sum(chain, [(first, 0), (last, 0)], [0] * len(dens))[0] == common


def test_chain_sum_of_no_terms_is_zero_over_one():
    for dens in ([], [3, 0, 7]):
        assert chain_sum(denominator_chain(dens), [], [1] * len(dens)) == (1, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(), max_size=6))
def test_repr_prints_fraction_reprs(coeffs):
    p = Poly(coeffs)
    assert repr(p) == f"Poly({list(p.coeffs)!r})"


def test_repr_prints_coefficients_past_the_default_digit_limit():
    # Fraction's repr calls str(int), which refuses more than 4300 digits by
    # default; the CLI lifts that limit for its process, so this runs in a
    # fresh interpreter
    script = (
        "import sys\n"
        "from deltaorder import parse_equation\n"
        "assert sys.get_int_max_str_digits() == 4300\n"
        "text = repr(parse_equation('(' + '1' * 5000 + 'z) f(z) + f(z+1) = 0'))\n"
        "assert 'Poly([Fraction(0, 1), Fraction(' + '1' * 5000 + ', 1)])' in text, text[:200]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(polynomials.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
