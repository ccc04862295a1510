import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    GeneralForm,
    OperatorTerm,
    Poly,
    format_delta_form,
    format_general,
    normalize_to_delta,
    parse_equation,
)
from deltaorder import polynomials
from deltaorder.errors import ParseError
from deltaorder.parsing import MAX_BITS, MAX_DEGREE, MAX_ORDER, read_int, read_rational

from fixtures_equations import CUBIC_THIRD, exact_magnitudes, int_digit_limit, random_poly


def test_parse_cubic_third_order_equation():
    g = parse_equation(CUBIC_THIRD)
    assert len(g.terms) == 4
    assert [t.delta_power for t in g.terms] == [3, 2, 1, 0]
    assert all(t.shift == 0 for t in g.terms)
    assert g.terms[0].coefficient == Poly([15, 19, 6])
    assert g.terms[1].coefficient == Poly([3, 1])
    assert g.terms[2].coefficient == Poly([-1])
    assert g.terms[3].coefficient == Poly([-1])


def test_parse_shift_terms():
    g = parse_equation("f(z+1) - f(z) = 0")
    assert len(g.terms) == 2
    assert (g.terms[0].shift, g.terms[0].coefficient) == (1, Poly([1]))
    assert (g.terms[1].shift, g.terms[1].coefficient) == (0, Poly([-1]))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_equation("(z) D f(z) + = 0")
    assert err.value.position == 13


def test_parse_rejects_nonzero_rhs():
    with pytest.raises(ParseError, match="right-hand side"):
        parse_equation("f(z+1) - f(z) = 1")


def test_parse_rejects_mixed_function_letters():
    with pytest.raises(ParseError, match="inconsistent function symbol"):
        parse_equation("f(z+1) - g(z) = 0")


def test_parse_whitespace_insensitive():
    a = parse_equation("(6z^2+19z+15)D^3f(z)+(z+3)D^2f(z)-Df(z)-f(z)=0")
    b = parse_equation(CUBIC_THIRD)
    assert a == b


def test_parse_unicode_difference_symbol():
    a = parse_equation("Δ^2 f(z) + Δ f(z) = 0")
    assert [t.delta_power for t in a.terms] == [2, 1]


def test_parse_rational_coefficients():
    g = parse_equation("3/2 z^2 D f(z) - 1/4 f(z) = 0")
    assert g.terms[0].coefficient == Poly([0, 0, Fraction(3, 2)])
    assert g.terms[1].coefficient == Poly([Fraction(-1, 4)])


def test_parse_implicit_products():
    g = parse_equation("256z(z - 1)(z - 2) D^4 y(z - 3) - 81z(z - 1) y(z - 2) = 0")
    assert g.terms[0].coefficient == Poly([0, 2, -3, 1]) * 256
    assert g.terms[0].shift == -3
    assert g.terms[1].coefficient == Poly([0, -1, 1]) * -81


def test_parse_explicit_star():
    g = parse_equation("(z + 3) * D^2 f(z) - f(z) = 0")
    assert g.terms[0].coefficient == Poly([3, 1])


def test_printer_round_trip_fixed():
    g = parse_equation(CUBIC_THIRD)
    assert parse_equation(format_general(g)) == g
    assert format_general(g) == CUBIC_THIRD.replace("19z + 15", "19z + 15")


def test_printer_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        terms = tuple(
            OperatorTerm(
                coefficient=random_poly(rng, 3, allow_zero=False),
                delta_power=rng.randint(0, 3),
                shift=rng.randint(-3, 3),
            )
            for _ in range(rng.randint(1, 5))
        )
        g = GeneralForm(terms=terms)
        assert parse_equation(format_general(g)) == g


def test_delta_form_printer_parses_back():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    again = normalize_to_delta(parse_equation(format_delta_form(eq)))
    assert again == eq


def test_degree_limit_is_checked_before_expansion():
    assert parse_equation(f"z^{MAX_DEGREE} f(z) + D f(z) = 0").terms[0].coefficient.degree == MAX_DEGREE
    assert parse_equation(f"(z^2)^{MAX_DEGREE // 2} z^0 f(z) = 0").terms[0].coefficient.degree == MAX_DEGREE
    for text, position in (
        (f"z^{MAX_DEGREE + 1} f(z) + D f(z) = 0", 2),
        (f"z^{MAX_DEGREE} z f(z) + D f(z) = 0", 6),
        (f"z * z^{MAX_DEGREE} f(z) + D f(z) = 0", 2),
        ("(z + 1)^100000 f(z + 1) - f(z) = 0", 8),
    ):
        with pytest.raises(ParseError, match=f"exceeds the limit {MAX_DEGREE}") as err:
            parse_equation(text)
        assert err.value.position == position
    # powers of constants and of zero keep their degree
    assert parse_equation("2^600 0^700 z f(z) + D f(z) = 0").terms[0].coefficient.is_zero


def test_order_limit_is_checked_before_normalization():
    # the order counts the largest D power plus shift and the recentering by
    # the most negative shift
    for text in (
        f"f(z+{MAX_ORDER}) - f(z) = 0",
        f"f(z+{MAX_ORDER // 2}) - f(z-{MAX_ORDER // 2}) = 0",
        f"D^{MAX_ORDER - 1} f(z+1) + z f(z) = 0",
        "0 f(z+100000) + D f(z) = 0",  # a zero term normalizes away
    ):
        parse_equation(text)
    for text, position in (
        (f"f(z+{MAX_ORDER + 1}) - f(z) = 0", 0),
        (f"f(z+{MAX_ORDER // 2}) - f(z-{MAX_ORDER // 2 + 1}) = 0", 10),
        (f"z f(z) + D^{MAX_ORDER} f(z+1) = 0", 9),
        ("f(z+3000) - f(z) = 0", 0),
        ("z^500 D^200 f(z) + f(z) = 0", 0),
        ("D^99999999999999999999 f(z) = 0", 0),
    ):
        with pytest.raises(ParseError, match=f"difference order .* exceeds the limit {MAX_ORDER}") as err:
            parse_equation(text)
        assert err.value.position == position


def test_bit_limit_is_checked_before_the_value_is_computed():
    # 3^63000 has 99 849 bits; the l1 bound of 3^63094 passes 2^100000
    assert parse_equation("3^63000 f(z+1) - f(z) = 0").terms[0].coefficient.nums[0] == 3**63000
    assert parse_equation("(1/2)^99999 f(z+1) - f(z) = 0").terms[0].coefficient.den == 2**99999
    assert parse_equation("(-1)^" + "9" * 400 + " f(z) + D f(z) = 0").terms[0].coefficient.nums == (-1,)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as the CLI does
    try:
        assert parse_equation(f"{2**MAX_BITS - 1} f(z) + D f(z) = 0")
        with pytest.raises(ParseError, match=f"literal exceeds the limit of {MAX_BITS} bits"):
            parse_equation(f"{2**MAX_BITS} f(z) + D f(z) = 0")
    finally:
        sys.set_int_max_str_digits(previous)
    for text, position in (
        ("3^63094 f(z+1) - f(z) = 0", 2),
        ("3^10000000 f(z+1) - f(z) = 0", 2),
        ("(3^50000 z + 1)(3^50000 z + 1) f(z+1) - f(z) = 0", 15),
        ("(1/2)^100000 f(z+1) - f(z) = 0", 6),
        ("1" * 40000 + " f(z) + D f(z) = 0", 0),  # rejected by its digits, before int()
        ("2^" + "9" * 400 + " f(z) + D f(z) = 0", 2),  # past the float range
    ):
        with pytest.raises(ParseError, match=f"exceeds? the limit of {MAX_BITS} bits") as err:
            parse_equation(text)
        assert err.value.position == position


def test_superscript_digits_are_rejected_where_they_stand():
    # str.isdigit() accepts '²' but int() does not; the tokenizer reads
    # exactly the decimal digits
    for text, position in (("z² f(z) + f(z+1) = 0", 1), ("z^² f(z) = 0", 2), ("3² f(z) = 0", 1)):
        with pytest.raises(ParseError, match="unexpected character '²'") as err:
            parse_equation(text)
        assert err.value.position == position
    assert parse_equation("٣z f(z) + D f(z) = 0").terms[0].coefficient == Poly([0, 3])


def _monomial_sum(n: int) -> str:
    """An n-term sum of monomials c z^k with degrees 9, 8, ..., 0 in turn."""
    terms = []
    for i in range(n):
        k, c = 9 - i % 10, 2 + i % 7
        terms.append(f"{c}z^{k}" if k > 1 else f"{c}z" if k == 1 else f"{c}")
    return "(" + " - ".join(terms) + ") D f(z) + f(z) = 0"


@pytest.mark.parametrize("n", [10, 40])
def test_a_sum_of_monomials_builds_a_few_polys_per_term(monkeypatch, n):
    # the tokenizer reads the parenthesized sum in one match and builds its
    # one Poly from one integer list; the equation's two sign constants add
    # two more, whatever n is.  Read token by token, each monomial built its
    # integer, its power and their product: 30 values at n = 10, 111 at 40.
    built = []
    fill = polynomials._fill

    def counting_fill(poly, den, nums):
        built.append(nums)
        fill(poly, den, nums)

    monkeypatch.setattr(polynomials, "_fill", counting_fill)
    general = parse_equation(_monomial_sum(n))
    assert len(general.terms[0].coefficient.nums) == 10
    assert len(built) == 3


def test_a_long_literal_parses_and_prints_at_the_default_digit_limit():
    # CPython's int() and str() refuse more than 4300 digits by default; the
    # CLI lifts that limit for its process, a library caller may not.  Each
    # check runs in a fresh interpreter, since the CLI tests lift it here.
    script = (
        "import sys\n"
        "from deltaorder import format_general, parse_equation\n"
        "from deltaorder.errors import ParseError\n"
        "assert sys.get_int_max_str_digits() == 4300\n"
        "for digits in (5000, 30103):\n"
        "    literal = '1' * digits\n"
        "    g = parse_equation('(' + literal + 'z) f(z) + f(z+1) = 0')\n"
        "    assert g.terms[0].coefficient.nums == (0, (10**digits - 1) // 9)\n"
        "    text = format_general(g)\n"
        "    assert literal + 'z' in text\n"
        "    assert parse_equation(text) == g\n"
        "try:\n"
        "    parse_equation('f(z) ' + '7' * 5000 + ' = 0')\n"
        "except ParseError as exc:\n"
        "    assert str(exc) == \"expected 'equals', found \" + '7' * 5000 + ' (at position 5)'\n"
        "else:\n"
        "    raise AssertionError('no ParseError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(polynomials.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


@settings(max_examples=300, deadline=None)
@given(
    magnitude=exact_magnitudes,
    sign=st.sampled_from(("", "+", "-")),
    zeros=st.integers(0, 2),
    den=st.one_of(st.none(), exact_magnitudes.filter(bool)),
)
def test_the_readers_match_int_and_fraction_at_the_default_digit_limit(magnitude, sign, zeros, den):
    # the texts the program writes, signed and with leading zeros; the
    # oracles run with the limit lifted, the readers under CPython's default
    with int_digit_limit(0):
        integer = sign + "0" * zeros + str(magnitude)
        rational = integer if den is None else f"{integer}/{den}"
        want_int, want = int(integer), Fraction(rational)
    with int_digit_limit(4300):
        got_int, got = read_int(integer), read_rational(rational)
    assert (type(got_int), got_int) == (int, want_int)
    assert (type(got), got) == (Fraction, want)
