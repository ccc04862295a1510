"""Coefficient expressions parse to the coefficients that sympy expands them to."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import parse_equation
from deltaorder.parsing import MAX_DEGREE

sympy = pytest.importorskip("sympy")

Z = sympy.Symbol("z")

# Each strategy draws (text, sympy value, bound on the degree of every
# intermediate product), so that no draw meets the parser's degree limit.

_integers = st.integers(0, 30).map(lambda n: (str(n), sympy.Integer(n), 0))


@st.composite
def _monomial_powers(draw):
    """(c z^k / d)^e and (-1)^e: the closed-form power path."""
    if draw(st.booleans()):
        e = draw(st.integers(0, 40))
        return f"(-1)^{e}", sympy.Integer(-1) ** e, 0
    c, k = draw(st.integers(-9, 9)), draw(st.integers(0, 3))
    d, e = draw(st.integers(1, 9)), draw(st.integers(0, 5))
    z = "" if k == 0 else "z" if k == 1 else f"z^{k}"
    text = f"({c}{z}/{d})^{e}" if c >= 0 else f"(-{-c}{z}/{d})^{e}"
    return text, (sympy.Integer(c) * Z**k / d) ** e, k * e


_named_powers = st.sampled_from(
    [
        ("(3z^2)^4", 81 * Z**8, 8),
        ("(1/2)^7", sympy.Rational(1, 128), 0),
        ("0^5", sympy.Integer(0), 0),
        ("(2z+1)^0", sympy.Integer(1), 1),
        ("2^3^2", sympy.Integer(64), 0),  # powers read left to right
        ("z^2^3", Z**6, 6),
        ("(-z)^3", -(Z**3), 3),
    ]
)


@st.composite
def _factors(draw, atoms):
    text, value, bound = draw(atoms)
    for e in draw(st.lists(st.integers(0, 3), max_size=2)):
        text, value, bound = f"{text}^{e}", value**e, bound * max(e, 1)
    return text, value, bound


@st.composite
def _products(draw, factors):
    text, value, bound = draw(factors)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            d = draw(st.integers(1, 9))
            text, value = f"{text}/{d}", value / d
        more, v, b = draw(factors)
        # adjacency multiplies; digits may not run into the previous token
        separators = ["*", " * ", " "] + ([""] if more[0] in "z(" else [])
        text, value, bound = text + draw(st.sampled_from(separators)) + more, value * v, bound + b
    if draw(st.booleans()):
        d = draw(st.integers(1, 9))
        text, value = f"{text}/{d}", value / d
    return text, value, bound


@st.composite
def _sums(draw, products):
    lead = draw(st.sampled_from(["", "-", "+", "--", "- +"]))
    text, value, bound = draw(products)
    text, value = lead + text, value * (-1) ** lead.count("-")
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from([" + ", " - ", "+", "-"]))
        more, v, b = draw(products)
        text, value, bound = text + op + more, value + v if "+" in op else value - v, max(bound, b)
    return text, value, bound


def _expressions(depth: int):
    atoms = [_integers, st.just(("z", Z, 1)), _monomial_powers(), _named_powers]
    if depth:
        atoms.append(_expressions(depth - 1).map(lambda t: (f"({t[0]})", t[1], t[2])))
    return _sums(_products(_factors(st.one_of(*atoms))))


def _sympy_coefficients(value) -> list[Fraction]:
    coeffs = sympy.Poly(sympy.expand(value), Z).all_coeffs()[::-1]
    out = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=200, deadline=None)
@given(_expressions(2).filter(lambda t: t[2] <= MAX_DEGREE))
def test_coefficients_match_sympy_expansion(drawn):
    text, value, _ = drawn
    coefficient = parse_equation(f"({text}) D f(z) + f(z) = 0").terms[0].coefficient
    assert list(coefficient.coeffs) == _sympy_coefficients(value), text
