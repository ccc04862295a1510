"""The parser agrees with the token-by-token reference parser on every text.

``reference_parser`` is a verbatim copy of the parser from before the
tokenizer read a parenthesized sum of integer monomials in one match.  On
any text, both must give the same terms (each coefficient's denominator and
numerators, difference power and shift), or raise the same error type with
the same message at the same position.  The texts are grammar draws, sums of
integer monomials written like the analyze-sweep benchmark's equations, and
one-character mutations of both.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import parse_equation
from deltaorder.parsing import _MAX_DIGITS, MAX_DEGREE, MAX_NESTING, _tokenize

import reference_parser
from fixtures_equations import CUBIC_THIRD, QUARTIC_34, QUARTIC_34_SHIFTED


@pytest.fixture(autouse=True, scope="module")
def _no_digit_limit():
    # the reference reads a literal with one int() call, which refuses more
    # than 4300 digits by default; lift the limit as the CLI does
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(previous)


def _outcome(parse, text: str):
    try:
        general = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return [(t.coefficient.den, t.coefficient.nums, t.delta_power, t.shift) for t in general.terms]


def _assert_agrees(text: str):
    assert _outcome(parse_equation, text) == _outcome(reference_parser.parse_equation, text), text


_spaces = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def _monomial(draw):
    """c, c z, z, c z^k or z^k, with spaces between the lexemes."""
    c = draw(st.one_of(st.none(), st.integers(0, 99), st.sampled_from([10**20 + 7, 123456789])))
    k = draw(st.one_of(st.none(), st.integers(0, 12), st.sampled_from([MAX_DEGREE, MAX_DEGREE + 1])))
    if c is None and k is None:
        return "z"
    z = "" if k is None else "z" if k == 1 and draw(st.booleans()) else f"z{draw(_spaces)}^{draw(_spaces)}{k}"
    if c is None:
        return z
    return f"{c}{draw(_spaces)}{z}" if z else str(c)


@st.composite
def _monomial_sum(draw):
    """A parenthesized sum of integer monomials: the lexeme the tokenizer reads in one match."""
    text = "(" + draw(_spaces) + draw(st.sampled_from(["", "-", "+", "--", "- +"])) + draw(_monomial())
    for _ in range(draw(st.integers(0, 6))):
        text += draw(_spaces) + draw(st.sampled_from("+-")) + draw(_spaces) + draw(_monomial())
    return text + draw(_spaces) + ")"


def _coefficient(depth: int):
    atoms = [
        st.integers(0, 30).map(str),
        st.just("z"),
        st.integers(0, 9).map(lambda k: f"z^{k}"),
        _monomial_sum(),
    ]
    if depth:
        atoms.append(_coefficient(depth - 1).map(lambda t: f"({t})"))

    @st.composite
    def factor(draw):
        text = draw(st.one_of(*atoms))
        for e in draw(st.lists(st.integers(0, 3), max_size=2)):
            text += f"^{e}"
        return text

    @st.composite
    def product(draw):
        text = draw(factor())
        for _ in range(draw(st.integers(0, 2))):
            text += draw(st.sampled_from(["", " ", "*", " * "])) + draw(factor())
        if draw(st.booleans()):
            text += f"/{draw(st.integers(1, 9))}"
        return text

    @st.composite
    def poly_sum(draw):
        text = draw(st.sampled_from(["", "-", "--"])) + draw(product())
        for _ in range(draw(st.integers(0, 2))):
            text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + draw(product())
        return text

    return poly_sum()


@st.composite
def _grammar_equation(draw):
    """Equations of the whole grammar, a coefficient inside another's parentheses at most once."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coefficient = draw(st.one_of(st.just(""), _coefficient(1)))
        star = draw(st.sampled_from(["", " ", " * "])) if coefficient else ""
        op = draw(st.sampled_from(["", "D ", "D^2 ", "Δ ", "D^3"]))
        shift = draw(st.sampled_from(["", "+1", " - 2", "+3"]))
        terms.append(f"{coefficient}{star}{op}f{draw(_spaces)}(z{shift})")
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + term
    return text + " = 0"


def _poly_text(coeffs) -> str:
    """Integer coefficients, ascending, written highest power first as the benchmark writes them."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            mono = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
            terms.append(("-" if c < 0 else "+", body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in terms[1:])


@st.composite
def _sweep_equation(draw):
    """Random integer coefficients P_j of D^j f(z), and the benchmark's fixed families."""
    if draw(st.integers(0, 4)) == 0:
        m, c = draw(st.integers(1, 16)), draw(st.integers(1, 2**34))
        return draw(
            st.sampled_from(
                [
                    f"z^{m} D f(z) + f(z) = 0",
                    f"D^{m} f(z) + z^{m - 1} f(z) = 0",
                    f"({c}z + 3) D^2 f(z) + z f(z) = 0",
                    CUBIC_THIRD,
                    QUARTIC_34,
                    QUARTIC_34_SHIFTED,
                ]
            )
        )
    terms = []
    for j in range(draw(st.integers(1, 8)) + 1):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=11))
        if any(coeffs):
            op = "" if j == 0 else "D " if j == 1 else f"D^{j} "
            terms.append(f"({_poly_text(coeffs)}) {op}f(z)")
    return (" + ".join(terms) or "f(z)") + " = 0"


_MUTATION_CHARACTERS = "0123456789z+-*/^() \t\n=Dfx−٣２Δ²"


@st.composite
def _mutated(draw, texts):
    """One character of a drawn text deleted, replaced, or inserted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text) - 1))
    ch = draw(st.sampled_from(_MUTATION_CHARACTERS))
    return draw(st.sampled_from([text[:i] + text[i + 1 :], text[:i] + ch + text[i + 1 :], text[:i] + ch + text[i:]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_grammar_equation())
def test_grammar_draws_parse_as_the_reference_parses_them(text):
    _assert_agrees(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sweep_equation())
def test_sweep_equations_parse_as_the_reference_parses_them(text):
    _assert_agrees(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutated(st.one_of(_grammar_equation(), _sweep_equation())))
def test_mutated_equations_parse_as_the_reference_parses_them(text):
    _assert_agrees(text)


def _nested(depth: int) -> str:
    return "(" * depth + "z + 1" + ")" * depth + " f(z) + D f(z) = 0"


EDGES = [
    # the degree limit inside and around the one-match sum
    f"(z^{MAX_DEGREE}) f(z) + D f(z) = 0",
    f"(z^{MAX_DEGREE + 1}) f(z) + D f(z) = 0",
    f"(2z^{MAX_DEGREE} - 1) f(z) + D f(z) = 0",
    f"(0z^{MAX_DEGREE + 1} + 1) f(z) + D f(z) = 0",
    f"(z^0{MAX_DEGREE}) f(z) + D f(z) = 0",
    "(z + 1)^500 f(z) + D f(z) = 0",
    "(z + 1)^501 f(z) + D f(z) = 0",
    "(z^250)(z^250 + 1) f(z) + D f(z) = 0",
    "(z^250)(z^251 + 1) f(z) + D f(z) = 0",
    # the nesting limit, checked where the token is consumed
    _nested(MAX_NESTING),
    _nested(MAX_NESTING + 1),
    # the digit and bit limits of a literal
    f"({'1' * (_MAX_DIGITS - 1)}z + 1) f(z) + D f(z) = 0",
    f"({'1' * _MAX_DIGITS}z + 1) f(z) + D f(z) = 0",
    f"({'1' * (_MAX_DIGITS + 1)}z + 1) f(z) + D f(z) = 0",
    f"({'9' * _MAX_DIGITS}z + 1) f(z) + D f(z) = 0",
    f"({'7' * 640}z + 1) f(z) + D f(z) = 0",
    f"({'7' * 641}z + 1) f(z) + D f(z) = 0",
    # powers, divisions and products around the sum
    "(z + 1)^2 f(z) + D f(z) = 0",
    "(z + 1)/2 f(z) + D f(z) = 0",
    "(z + 1)(z + 2) f(z) + D f(z) = 0",
    "(z + 1) * (z + 2) * D f(z) + f(z) = 0",
    "z(z + 1) f(z) + D f(z) = 0",
    "(z + 1) f (z) + D f(z) = 0",
    "(z + 1) f (z + 1) - f(z) = 0",
    "-(-z + 1) f(z+1) + (- - 3 z ^ 2 - z) f(z) = 0",
    "(3z^2)^200 f(z) + D f(z) = 0",
    # whitespace and characters the one-match pattern leaves to the token parser
    "(z\n+ 1) f(z) + D f(z) = 0",
    "(z\t+ 1) f(z) + D f(z) = 0",
    "(z − 1) f(z) + D f(z) = 0",
    "(٣z + 1) f(z) + D f(z) = 0",
    "(２z + 1) f(z) + D f(z) = 0",
    "(z² + 1) f(z) + D f(z) = 0",
    "(2^3 + z) f(z) + D f(z) = 0",
    "(z^2^2 + 1) f(z) + D f(z) = 0",
    "(3 4z) f(z) + D f(z) = 0",
    "(z/2 + 1) f(z) + D f(z) = 0",
    "(2*z + 1) f(z) + D f(z) = 0",
    "((z + 1)) f(z) + D f(z) = 0",
    "(z + -1) f(z) + D f(z) = 0",
    "() f(z) + D f(z) = 0",
    "(z+) f(z) + D f(z) = 0",
    "(z + 1 f(z) + D f(z) = 0",
    # errors that quote a '(' the tokenizer read with its sum
    "D^2 (z + 1) f(z) = 0",
    "(z + 1)^(2) f(z) + D f(z) = 0",
    "f(z) + D f(z) = (0)",
    "f(z) + D f(z) (z) = 0",
    "f(z) + D f(z) = 0 (z + 1)",
]


@pytest.mark.parametrize("text", EDGES, ids=range(len(EDGES)))
def test_edges_of_the_one_match_sum_parse_as_the_reference_parses_them(text):
    _assert_agrees(text)


def test_a_parenthesis_after_a_letter_is_read_token_by_token():
    # a function argument and a product with z keep their ordinary tokens;
    # a parenthesis after an operator, a number or another sum is read in one match
    tokens = _tokenize("(z + 1)(z + 2) f(z + 1) + z(z + 1) f(z) - 2 (z) D f(z) = 0")
    assert [t.poly is not None for t in tokens if t.kind == "lparen"] == [True, True, False, False, False, True, False]
