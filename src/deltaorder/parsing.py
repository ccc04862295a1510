"""Text grammar for difference equations, the canonical printer, and the number readers.

Grammar (whitespace-insensitive)::

    equation := term (('+'|'-') term)* '=' '0'
    term     := poly '*'? ('D' ('^' int)?)? fn '(' 'z' (('+'|'-') int)? ')'
    poly     := usual arithmetic over rationals and z: sums, products
                (adjacency multiplies), integer powers with '^', division
                by integer literals, parentheses (at most MAX_NESTING deep)

``int`` is a run of decimal digits (``str.isdecimal``, the digits ``int()``
reads; superscripts such as ``²`` are rejected), and ``^`` is
left-associative: ``2^3^2`` is 64.  ``D`` and the UTF-8 difference symbol are
interchangeable; ``fn`` is any single letter other than ``z``/``D`` (the same
letter throughout an equation).  The right-hand side must be literally 0.
The canonical printer emits this grammar with function letter ``f``.

Cost model: the tokenizer reads a parenthesized sum of integer monomials,
such as ``(8z^10 + 7z^9 - 2z + 8)``, in one regular-expression match and
builds its one ``Poly`` from one integer list, so such a sum costs one token
and one value.  Any other coefficient is parsed token by token: a sum builds
one ``Poly``, adding its summands' numerators over the lcm of their
denominators; a power of a monomial c z^k is c^e z^(ke) in closed form; a
product with a constant factor scales the other operand's numerators.  The
degree and bit limits are checked before each product or power is expanded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .equations import DifferenceEquation, GeneralForm, OperatorTerm
from .errors import ParseError
from .polynomials import Poly, _decimal_text, format_poly

_DELTA = "Δ"
_Z = Poly([0, 1])  # shared: Poly values are immutable

#: Largest coefficient degree the parser accepts.  The monomial window that
#: ``analyze`` prints costs about d^3 big-integer operations in the degree d:
#: on z^d D f(z) + f(z) = 0 it took 3.7 s at d = 400 and 6.8 to 8.6 s at
#: d = 500 on a shared 2-vCPU host, of which ``derive_recurrence`` in process
#: took 0.3 s and 0.6 s.  A product or power that would exceed the limit is
#: rejected with ParseError before it is expanded.
MAX_DEGREE = 500

#: Deepest nesting of parentheses in a coefficient.  Each level takes three
#: parser frames; 335 levels exhausted the interpreter's recursion limit.
MAX_NESTING = 100

#: Largest order of the Delta-form an equation may normalize to: the largest
#: difference power plus shift over its terms, plus the recentering by its most
#: negative shift (f(z+s) - f(z) has order s).  ``analyze`` on f(z+s) - f(z) = 0
#: took 0.44 s at s = 100, 2.3 s at 300 and 10.8 s at 500; at the degree limit,
#: z^500 D^m f(z) + f(z) = 0 took about 10 s at m = 1, 17.8 s at m = 100 and
#: 29 s at m = 200 on a shared 2-vCPU host.  An equation over the limit is
#: rejected with ParseError once its terms are read, before it is normalized.
MAX_ORDER = 100

#: Largest coefficient size in bits.  An integer literal, product or power
#: whose numerators or denominator could reach 2**MAX_BITS is rejected with
#: ParseError before its value is computed; products and powers are bounded
#: by the l1 norm, as |p q|_1 <= |p|_1 |q|_1.  ``analyze`` on
#: 3^k f(z+1) - f(z) = 0 took 0.65 s at 158 000 bits, 3.8 s at 475 000 and
#: 39 s at 1 580 000, most of it printing the coefficients in decimal.
MAX_BITS = 100_000

# a literal of more digits than this is at least 10**(digits - 1) > 2**MAX_BITS
_MAX_DIGITS = int(MAX_BITS * math.log10(2)) + 1
_OVER_BITS = f"coefficient bit size could exceed the limit of {MAX_BITS} bits"


def _height(p: Poly) -> int:
    """A bound on every numerator and the denominator of p: its l1 norm or its denominator."""
    return max(sum(map(abs, p.nums)), p.den)


class _Token:
    __slots__ = ("kind", "value", "pos", "poly")

    def __init__(self, kind, value, pos, poly=None):
        self.kind = kind
        self.value = value
        self.pos = pos
        self.poly = poly  # the Poly of a '(' read with its whole sum, else None

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.pos})"


def _shown(value) -> str:
    """A token's value as an error message quotes it: its repr, an int of any length included."""
    return _decimal_text(value) if type(value) is int else repr(value)


# character -> (token kind, token value)
_PUNCTUATION = {ch: ("op", ch) for ch in "+-*/^"}
_PUNCTUATION.update({"(": ("lparen", "("), ")": ("rparen", ")"), "=": ("equals", "=")})
_PUNCTUATION["−"] = ("op", "-")  # unicode minus

# --- number literals: the one conversion from text to an exact number ---------

# CPython's int() refuses a decimal string longer than the interpreter's
# int/str digit limit (4300 by default), and 640 is the smallest that limit
# can be set to; text of at most this many characters is read by one int()
# or Fraction() call, with their own values and messages.
_INT_PIECE = 640
# the most characters of user text that an error message quotes
_QUOTED = 40

# an integer literal as int() reads it, without underscores: (sign, digits)
_PLAIN_INT = re.compile(r"\s*([+-]?)(\d+)\s*")
# the form the program writes rationals in, ASCII digits only
_PLAIN_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def quoted(text: str) -> str:
    """User text as an error message quotes it: the repr of at most its first ``_QUOTED`` characters."""
    return repr(text[:_QUOTED])


def read_int(text: str, limit: int | None = None) -> int:
    """``int(text)`` for a decimal literal of any length, read in subquadratic time.

    Text longer than ``_INT_PIECE`` must be ``[+-]digits``, whitespace around
    it allowed, and is read in halves.  With ``limit``, a ``[+-]digits`` text
    longer than ``_QUOTED`` characters whose digits after leading zeros
    outnumber those of ``limit`` raises OverflowError unread: a message could
    not print it whole.
    """
    if len(text) <= (_INT_PIECE if limit is None else _QUOTED):
        return int(text)
    plain = _PLAIN_INT.fullmatch(text)
    if not plain:
        if len(text) <= _INT_PIECE:
            return int(text)
        raise ValueError(f"invalid literal for int() with base 10: {quoted(text)}")
    if limit is not None and len(plain[2].lstrip("0")) > len(str(limit)):
        raise OverflowError(f"{quoted(text)} exceeds {limit} in magnitude")
    value = _read_digits(plain[2])
    return -value if plain[1] == "-" else value


def _read_digits(digits: str) -> int:
    """The value of a run of decimal digits, read in halves down to ``_INT_PIECE`` digits."""
    if len(digits) <= _INT_PIECE:
        return int(digits)
    half = len(digits) // 2
    return _read_digits(digits[:-half]) * 10**half + _read_digits(digits[-half:])


def read_rational(value: str | int) -> Fraction:
    """``Fraction(value)``, refusing a literal whose decimal exponent exceeds ``_MAX_DIGITS`` in magnitude.

    ``Fraction`` expands an exponent into digits before any limit applies, so
    a literal as short as 1e2000000 would run for minutes; the program never
    writes one.  A plain ``[+-]digits[/digits]`` longer than ``_INT_PIECE``
    is read by :func:`read_int`, in subquadratic time; over a zero
    denominator it raises Fraction's ZeroDivisionError, its numerator read
    into no int.  Fraction's ValueError for any other long literal quotes it.
    """
    if type(value) is int:
        return Fraction(value)
    long = len(value) > _INT_PIECE
    if long and _PLAIN_RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        if den and not den.strip("0"):
            digits = num.lstrip("+-").lstrip("0") or "0"
            raise ZeroDivisionError(f"Fraction({'-' if num[0] == '-' and digits != '0' else ''}{digits}, 0)")
        return Fraction(read_int(num), read_int(den or "1"))
    _, sep, exponent = value.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if sep and digits.isdecimal() and (len(digits) > 6 or int(digits) > _MAX_DIGITS):
        raise ValueError(f"the decimal exponent of {quoted(value)} exceeds {_MAX_DIGITS} in magnitude")
    try:
        return Fraction(value)
    except ValueError as exc:
        # Fraction's own message holds the whole literal
        if long and str(exc).startswith("Invalid literal"):
            raise ValueError(f"Invalid literal for Fraction: {quoted(value)}") from None
        raise


# A parenthesized sum of integer monomials c, c z, z, c z^k and z^k: leading
# signs, one sign between monomials, spaces and tabs between lexemes, digit
# runs of at most _INT_PIECE digits and exponents of at most three.
_W = r"[ \t]*"
_POWER = rf"(?:{_W}\^{_W}[0-9]{{1,3}})?"
_MONOMIAL = rf"(?:[0-9]{{1,{_INT_PIECE}}}(?:{_W}z{_POWER})?|z{_POWER})"
_SUM = re.compile(rf"\({_W}(?:[+-]{_W})*{_MONOMIAL}(?:{_W}[+-]{_W}{_MONOMIAL})*{_W}\)")
# inside a _SUM match, one match per monomial: (signs, c, 'z' or '', k)
_SUMMAND = re.compile(r"([-+ \t]*)([0-9]*)[ \t]*(z?)[ \t]*\^?[ \t]*([0-9]*)")


def _sum_poly(text: str, start: int, end: int) -> Poly | None:
    """The Poly of the monomials that _SUM matched in text[start:end]; None for a degree over MAX_DEGREE."""
    nums = []
    for signs, c, z, k in _SUMMAND.findall(text, start, end):
        if not (c or z):  # the empty match where the text ends
            continue
        degree = (int(k) if k else 1) if z else 0
        if degree > MAX_DEGREE:
            return None
        if degree >= len(nums):
            nums.extend([0] * (degree + 1 - len(nums)))
        value = int(c) if c else 1
        nums[degree] += -value if signs.count("-") & 1 else value
    return Poly._from_ints(nums)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending with an "end" token.

    A ``(`` that does not follow a letter and opens a sum of integer
    monomials that ``_SUM`` matches completely, such as
    ``(8z^10 + 7z^9 - 2z + 8)``, becomes one "lparen" token that carries the
    sum's Poly and spans the text up to its ``)``.  Such a sum raises no
    error and meets no limit inside its parentheses, so the token parser
    would build the same Poly from it; the parser checks the nesting limit
    where it consumes the token and reads powers, divisions and products
    around it as before.  A ``(`` after a letter opens a function argument
    (``f(z+1)``) or a product (``z(z+1)``), and any text the pattern does
    not match completely (``2^3``, ``3 4z``, ``*``, a nested parenthesis, a
    newline or a non-ASCII digit, an exponent over MAX_DEGREE) is read token
    by token, so each error is raised where the token parser raises it.
    """
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
            value = read_int(text[i:j])
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
        if ch == "(" and (not tokens or tokens[-1].kind != "letter"):
            match = _SUM.match(text, i)
            poly = _sum_poly(text, i + 1, match.end() - 1) if match else None
            if poly is not None:
                tokens.append(_Token("lparen", "(", i, poly))
                i = match.end()
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
            self.fail(f"expected {want!r}, found {_shown(tok.value)}")
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
            if tok.poly is not None:
                base = tok.poly
            else:
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
            self.fail(f"expected a function symbol, found {_shown(tok.value)}")
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
            self.fail(f"trailing input {_shown(self.peek().value)}")
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
    if coeff != 1:
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

