"""Text grammar for difference equations, plus the canonical printer.

Grammar (whitespace-insensitive)::

    equation := term (('+'|'-') term)* '=' '0'
    term     := poly '*'? ('D' ('^' int)?)? fn '(' 'z' (('+'|'-') int)? ')'
    poly     := usual arithmetic over rationals and z: sums, products
                (adjacency multiplies), integer powers with '^', division
                by integer literals, parentheses

``D`` and the UTF-8 difference symbol are interchangeable; ``fn`` is any
single letter other than ``z``/``D`` (the same letter throughout an
equation).  The right-hand side must be literally 0.  The canonical printer
emits this grammar with function letter ``f``.
"""

from __future__ import annotations

from fractions import Fraction

from .equations import DifferenceEquation, GeneralForm, OperatorTerm
from .errors import ParseError
from .polynomials import Poly, format_poly

_DELTA = "Δ"


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.pos})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), i))
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
        if ch in "+-*/^()=":
            kind = {"(": "lparen", ")": "rparen", "=": "equals"}.get(ch, "op")
            tokens.append(_Token(kind, ch, i))
            i += 1
            continue
        if ch == "−":  # unicode minus
            tokens.append(_Token("op", "-", i))
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
        total = self.parse_poly_product() * sign
        while self.peek().kind == "op" and self.peek().value in "+-":
            sign = 1 if self.advance().value == "+" else -1
            total = total + self.parse_poly_product() * sign
        return total

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
                total = total * self.parse_poly_factor()
                continue
            if tok.kind == "op" and tok.value == "/":
                self.advance()
                denom = self.expect("int").value
                if denom == 0:
                    self.fail("division by zero")
                total = total * Fraction(1, denom)
                continue
            # adjacency means multiplication; function letters are not atoms,
            # so the operator part of a term never gets swallowed
            if self._atom_at(self.index):
                total = total * self.parse_poly_factor()
                continue
            return total

    def parse_poly_factor(self) -> Poly:
        tok = self.peek()
        if tok.kind == "int":
            base = Poly.constant(self.advance().value)
        elif tok.kind == "lparen":
            self.advance()
            base = self.parse_poly_sum()
            self.expect("rparen")
        elif tok.kind == "letter" and tok.value == "z":
            self.advance()
            base = Poly.variable()
        else:
            self.fail(f"expected a polynomial, found {tok.value!r}")
        while self.peek().kind == "op" and self.peek().value == "^":
            self.advance()
            base = base ** self.expect("int").value
        return base

    # -- terms and the whole equation

    def parse_term(self, sign: int) -> OperatorTerm:
        coefficient = Poly.constant(sign)
        if self._atom_at(self.index):
            coefficient = self.parse_poly_sum() * sign
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
        lead_sign = 1
        if self.peek().kind == "op" and self.peek().value in "+-":
            lead_sign = 1 if self.advance().value == "+" else -1
        terms = [self.parse_term(lead_sign)]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                terms.append(self.parse_term(1 if tok.value == "+" else -1))
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


# --- canonical printer --------------------------------------------------------


def _term_text(term: OperatorTerm, leading: bool) -> str:
    coeff = term.coefficient
    sign = "-" if (not coeff.is_zero and coeff.leading_coefficient < 0) else "+"
    if sign == "-":
        coeff = -coeff
    parts = []
    if coeff != Poly.constant(1):
        if coeff.degree <= 0:
            parts.append(format_poly(coeff))
        else:
            parts.append(f"({format_poly(coeff)})")
    if term.delta_power == 1:
        parts.append("D")
    elif term.delta_power > 1:
        parts.append(f"D^{term.delta_power}")
    if term.shift == 0:
        arg = "z"
    elif term.shift > 0:
        arg = f"z+{term.shift}"
    else:
        arg = f"z{term.shift}"
    parts.append(f"f({arg})")
    body = " ".join(parts)
    if leading:
        return body if sign == "+" else f"-{body}"
    return f"{sign} {body}"


def format_general(g: GeneralForm) -> str:
    """Render a general form in the equation grammar (round-trips exactly)."""
    pieces = [_term_text(t, i == 0) for i, t in enumerate(g.terms)]
    return " ".join(pieces) + " = 0"


def format_delta_form(eq: DifferenceEquation) -> str:
    """Render a canonical equation as pure difference powers of f(z)."""
    terms = [
        OperatorTerm(coefficient=p, delta_power=j, shift=0)
        for j, p in sorted(enumerate(eq.coeffs), key=lambda kv: -kv[0])
        if not p.is_zero
    ]
    return format_general(GeneralForm(terms=tuple(terms)))

