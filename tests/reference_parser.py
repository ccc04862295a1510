"""The equation parser as it stood before the tokenizer read a coefficient sum in one match.

A verbatim copy of ``parsing._tokenize`` and ``parsing._Parser`` (with the
helpers they use) from before that change, kept as the reference that
``test_parsing_reference`` compares the library's parser against: every
parsed term, and every error's type, message and position, must agree.
Do not edit it to follow the library.
"""

from __future__ import annotations

import math

from deltaorder.equations import GeneralForm, OperatorTerm
from deltaorder.errors import ParseError
from deltaorder.parsing import _MAX_DIGITS, _OVER_BITS, MAX_BITS, MAX_DEGREE, MAX_NESTING, MAX_ORDER
from deltaorder.polynomials import Poly

_DELTA = "Δ"
_Z = Poly([0, 1])  # shared: Poly values are immutable


def _height(p: Poly) -> int:
    """A bound on every numerator and the denominator of p: its l1 norm or its denominator."""
    return max(sum(map(abs, p.nums)), p.den)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.pos})"


# character -> (token kind, token value)
_PUNCTUATION = {ch: ("op", ch) for ch in "+-*/^"}
_PUNCTUATION.update({"(": ("lparen", "("), ")": ("rparen", ")"), "=": ("equals", "=")})
_PUNCTUATION["−"] = ("op", "-")  # unicode minus


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() reads; '²' is not one
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > _MAX_DIGITS:
                raise ParseError(f"integer literal exceeds the limit of {MAX_BITS} bits", i)
            value = int(text[i:j])
            if value.bit_length() > MAX_BITS:
                raise ParseError(f"integer literal exceeds the limit of {MAX_BITS} bits", i)
            tokens.append(_Token("int", value, i))
            i = j
            continue
        if ch == _DELTA:
            tokens.append(_Token("letter", "D", i))
            i += 1
            continue
        if ch.isalpha():
            tokens.append(_Token("letter", ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            kind, value = _PUNCTUATION[ch]
            tokens.append(_Token(kind, value, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # parentheses open around the current factor
        self.function_letter: str | None = None

    # -- token helpers

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.peek().pos)

    def expect(self, kind: str, value=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            self.fail(f"expected {want!r}, found {tok.value!r}")
        return self.advance()

    # -- coefficient polynomials

    def parse_poly_sum(self) -> Poly:
        sign = 1
        while self.peek().kind == "op" and self.peek().value in "+-":
            if self.advance().value == "-":
                sign = -sign
        terms = [(sign, self.parse_poly_product())]
        while self.peek().kind == "op" and self.peek().value in "+-":
            sign = 1 if self.advance().value == "+" else -1
            terms.append((sign, self.parse_poly_product()))
        if len(terms) == 1:
            return terms[0][1] if sign > 0 else -terms[0][1]
        # one Poly for the whole sum, over the lcm of the summands' denominators
        den = math.lcm(*[p.den for _, p in terms])
        out = [0] * max(len(p.nums) for _, p in terms)
        for sign, p in terms:
            scale = sign * (den // p.den)
            for k, c in enumerate(p.nums):
                out[k] += scale * c
        return Poly._from_ints(out, den)

    def _atom_at(self, index: int) -> bool:
        tok = self.tokens[index]
        if tok.kind in ("int", "lparen"):
            return True
        return tok.kind == "letter" and tok.value == "z"

    def parse_poly_product(self) -> Poly:
        total = self.parse_poly_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                # a '*' followed by the operator part separates coefficient
                # and operator; only consume it for an actual product
                if not self._atom_at(self.index + 1):
                    return total
                self.advance()
                total = self._product(total, self.parse_poly_factor(), tok.pos)
                continue
            if tok.kind == "op" and tok.value == "/":
                self.advance()
                denom = self.expect("int").value
                if denom == 0:
                    self.fail("division by zero")
                total = Poly._from_ints(total.nums, total.den * denom)
                continue
            # adjacency means multiplication; function letters are not atoms,
            # so the operator part of a term never gets swallowed
            if self._atom_at(self.index):
                total = self._product(total, self.parse_poly_factor(), tok.pos)
                continue
            return total

    @staticmethod
    def _check_degree(degree, position: int):
        if degree > MAX_DEGREE:
            raise ParseError(f"coefficient degree {degree} exceeds the limit {MAX_DEGREE}", position)

    def _product(self, left: Poly, right: Poly, position: int) -> Poly:
        self._check_degree(left.degree + right.degree, position)
        if (_height(left) * _height(right)).bit_length() > MAX_BITS:
            raise ParseError(_OVER_BITS, position)
        return left * right

    def parse_poly_factor(self) -> Poly:
        tok = self.peek()
        if tok.kind == "int":
            base = Poly._from_ints((self.advance().value,))
        elif tok.kind == "lparen":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nest deeper than the limit {MAX_NESTING}")
            self.advance()
            self.depth += 1
            base = self.parse_poly_sum()
            self.depth -= 1
            self.expect("rparen")
        elif tok.kind == "letter" and tok.value == "z":
            self.advance()
            base = _Z
        else:
            self.fail(f"expected a polynomial, found {tok.value!r}")
        while self.peek().kind == "op" and self.peek().value == "^":
            self.advance()
            exponent = self.expect("int")
            if exponent.value and not base.is_zero:
                self._check_degree(base.degree * exponent.value, exponent.pos)
                height = _height(base)
                # a height of 2 or more has a log2 of at least 1, so a power of
                # MAX_BITS or more passes the limit without a float product
                if height > 1 and (
                    exponent.value >= MAX_BITS or exponent.value * math.log2(height) >= MAX_BITS
                ):
                    raise ParseError(_OVER_BITS, exponent.pos)
            base = base**exponent.value
        return base

    # -- terms and the whole equation

    def parse_term(self, sign: int) -> OperatorTerm:
        coefficient = Poly._from_ints((sign,))
        if self._atom_at(self.index):
            coefficient = self.parse_poly_sum()
            if sign < 0:
                coefficient = -coefficient
        tok = self.peek()
        if tok.kind == "op" and tok.value == "*":
            self.advance()
            tok = self.peek()
        delta_power = 0
        if tok.kind == "letter" and tok.value == "D":
            self.advance()
            delta_power = 1
            if self.peek().kind == "op" and self.peek().value == "^":
                self.advance()
                delta_power = self.expect("int").value
            tok = self.peek()
        if tok.kind != "letter" or tok.value in ("z", "D"):
            self.fail(f"expected a function symbol, found {tok.value!r}")
        letter = self.advance().value
        if self.function_letter is None:
            self.function_letter = letter
        elif letter != self.function_letter:
            self.fail(
                f"inconsistent function symbol {letter!r} "
                f"(equation uses {self.function_letter!r})"
            )
        self.expect("lparen")
        z = self.expect("letter")
        if z.value != "z":
            raise ParseError(f"expected 'z', found {z.value!r}", z.pos)
        shift = 0
        if self.peek().kind == "op" and self.peek().value in "+-":
            negative = self.advance().value == "-"
            amount = self.expect("int").value
            shift = -amount if negative else amount
        self.expect("rparen")
        return OperatorTerm(coefficient=coefficient, delta_power=delta_power, shift=shift)

    def parse_equation(self) -> GeneralForm:
        sign = 1
        if self.peek().kind == "op" and self.peek().value in "+-":
            sign = 1 if self.advance().value == "+" else -1
        terms = []
        top, low = -math.inf, 0  # the largest difference power plus shift, the smallest shift
        while True:
            start = self.peek().pos
            term = self.parse_term(sign)
            terms.append(term)
            if not term.coefficient.is_zero:
                top = max(top, term.delta_power + term.shift)
                low = min(low, term.shift)
                if top - low > MAX_ORDER:
                    raise ParseError(f"difference order {top - low} exceeds the limit {MAX_ORDER}", start)
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                sign = 1 if tok.value == "+" else -1
                continue
            break
        self.expect("equals")
        rhs = self.peek()
        if rhs.kind != "int" or rhs.value != 0:
            self.fail("right-hand side must be 0")
        self.advance()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().value!r}")
        return GeneralForm(terms=tuple(terms))


def parse_equation(text: str) -> GeneralForm:
    """Parse equation text into a general form; raises ParseError on bad input."""
    return _Parser(text).parse_equation()
