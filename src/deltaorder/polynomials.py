"""Exact rational polynomials and the forward-difference calculus.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), so every
operation here is exact.  A polynomial is a dense coefficient tuple in the
monomial basis.  Taylor shifts and the falling-factorial basis both go
through one integer kernel that expands a Newton form; nothing is cached
between calls.  Falling powers with an arbitrary (non-integer) exponent are
evaluated through the gamma function in arbitrary precision.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import ConfigurationError, GammaPoleError

Rational = Fraction

#: Degree of the zero polynomial: ordered below every integer.
NEG_INF = float("-inf")


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def working_precision() -> int:
    """Evaluation precision in bits (env DELTAORDER_PRECISION, default 128).

    Values below 53 are raised to double precision; a value that is not an
    integer raises ConfigurationError.
    """
    raw = os.environ.get("DELTAORDER_PRECISION")
    if raw is None:
        return 128
    try:
        bits = int(raw)
    except ValueError:
        raise ConfigurationError(f"DELTAORDER_PRECISION={raw!r} is not an integer") from None
    return max(bits, 53)


class Poly:
    """Univariate polynomial over the rationals (monomial basis).

    ``coeffs[k]`` is the coefficient of ``z**k``; trailing zeros are trimmed,
    so the zero polynomial has an empty coefficient tuple and degree
    ``NEG_INF``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, value) -> Poly:
        return cls([value])

    @classmethod
    def monomial(cls, power: int, coeff=1) -> Poly:
        return cls([0] * power + [coeff])

    @classmethod
    def variable(cls) -> Poly:
        return cls([0, 1])

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other) -> Poly:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> Poly:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for rational arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def shifted(self, offset) -> Poly:
        """Return P(z + offset) for a rational offset, expanded exactly."""
        offset = as_rational(offset)
        if offset == 0 or self.is_zero:
            return self
        return expand_newton(self.coeffs, [-offset] * len(self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def _coerce_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly([value])
    return NotImplemented


def format_poly(p: Poly, variable: str = "z") -> str:
    """Render a polynomial in descending powers, e.g. ``6z^2 + 19z + 15``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = variable if power == 1 else f"{variable}^{power}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_delta(p: Poly) -> Poly:
    """Forward difference P(z+1) - P(z); drops the degree by exactly one."""
    return p.shifted(1) - p


def iterated_delta(p: Poly, times: int) -> Poly:
    """Apply the forward difference ``times`` times (identity for 0)."""
    if times < 0:
        raise ValueError("difference order must be non-negative")
    out = p
    for _ in range(times):
        if out.is_zero:
            break
        out = poly_delta(out)
    return out


# --- Newton forms and the falling-factorial basis ---------------------------


def common_denominator(values) -> tuple[int, list[int]]:
    """``(den, ints)``: the lcm of the denominators and the numerators over it."""
    values = [as_rational(v) for v in values]
    # star-args from a list: a generator's args tuple is resized, which moves it
    # between CPython's per-size tuple free lists and lets them grow
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def expand_newton(coeffs, nodes) -> Poly:
    """Monomial form of the Newton sum  sum_u c_u (z - x_0)...(z - x_{u-1}).

    ``nodes`` yields x_0, x_1, ...; only the first len(coeffs) - 1 are read.
    With c_u = C_u / L and x_k = X_k / S over common denominators, Horner's
    rule  R <- R (S z - X_u) + C_u S^(top-u)  on integer lists gives
    L S^top times the sum (von zur Gathen & Gerhard, ISSAC 1997), and each
    output coefficient becomes one Fraction.  A Taylor shift by a uses the
    nodes -a, -a, ...; the falling basis uses 0, 1, 2, ....
    """
    cs = [as_rational(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return Poly()
    top = len(cs) - 1
    scale, ints = common_denominator(cs)
    step, xs = common_denominator(itertools.islice(nodes, top))
    if len(xs) < top:
        raise ValueError(f"a Newton form of degree {top} needs {top} nodes")
    acc = [ints[top]]
    power = 1  # step^(top-u)
    for u in range(top - 1, -1, -1):
        power *= step
        x = xs[u]
        acc = [
            ints[u] * power - x * acc[0],
            *[step * a - x * b for a, b in zip(acc, acc[1:])],
            step * acc[-1],
        ]
    den = scale * power
    return Poly([Fraction(a, den) for a in acc])


def to_falling_basis(p: Poly) -> list[Fraction]:
    """Exact falling-factorial coefficients of ``p`` (index = falling power).

    With p = P/L for an integer polynomial P, the coefficient of ff(z, t) is
    the t-th forward difference of P at 0 over L t!, taken on the integer
    values P(0), ..., P(deg p).
    """
    if p.is_zero:
        return []
    scale, ints = common_denominator(p.coeffs)
    values = []
    for x in range(len(ints)):
        acc = 0
        for c in reversed(ints):
            acc = acc * x + c
        values.append(acc)
    out = []
    den = scale
    for t in range(len(ints)):
        out.append(Fraction(values[0], den))
        values = [b - a for a, b in zip(values, values[1:])]
        den *= t + 1
    return out


def from_falling_basis(coeffs) -> Poly:
    """Inverse of :func:`to_falling_basis`; exact."""
    return expand_newton(coeffs, itertools.count())


def falling_factorial_poly(length: int, offset=0) -> Poly:
    """The polynomial (z + offset)(z + offset - 1)...(z + offset - length + 1)."""
    if length < 0:
        raise ValueError("falling power length must be non-negative")
    offset = as_rational(offset)
    out = Poly([1])
    for u in range(length):
        out = out * Poly([offset - u, 1])
    return out


def falling_factorial(x, length: int) -> Fraction:
    """Exact falling factorial x(x-1)...(x-length+1) of a rational x."""
    if length < 0:
        raise ValueError("falling power length must be non-negative")
    x = as_rational(x)
    out = Fraction(1)
    for u in range(length):
        out *= x - u
    return out


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class FallingExpansion:
    """Expansion of ff(z, m) * ff(z, rho) over falling powers z^(rho + offset).

    ``terms`` pairs each rational coefficient with its non-negative exponent
    offset, so the represented value is  sum_j coeff_j * ff(z, rho + offset_j).
    """

    rho: Fraction
    terms: tuple[tuple[Fraction, int], ...]

    def evaluate(self, z, prec: int | None = None) -> complex:
        """Sum the expansion at z, accumulating in working precision.

        The terms can cancel heavily, so the conversion to a double happens
        only after the full sum.
        """
        bits = prec if prec is not None else working_precision()
        with mpmath.workprec(bits):
            total = mpmath.mpc(0)
            for coeff, offset in self.terms:
                if coeff == 0:
                    continue
                scale = mpmath.mpf(coeff.numerator) / coeff.denominator
                total += scale * _falling_power_mp(z, self.rho + offset)
            return complex(total)


def falling_product_expand(m: int, rho) -> FallingExpansion:
    """Expand ff(z, m) * ff(z, rho) exactly.

    The product of an integer falling power with a general falling power is
    again a combination of general falling powers:

        ff(z, m) * ff(z, rho) = sum_j C(m, j) ff(rho, j) ff(z, rho + m - j)

    All m+1 terms are returned, including any that vanish.
    """
    if m < 0:
        raise ValueError("integer falling power must have non-negative order")
    rho = as_rational(rho)
    terms = tuple(
        (binomial(m, j) * falling_factorial(rho, j), m - j) for j in range(m + 1)
    )
    return FallingExpansion(rho=rho, terms=terms)


# --- falling powers with general exponent ------------------------------------


def _exact(value) -> Fraction | None:
    """The exact rational behind ``value``, or None for an inexact number."""
    if isinstance(value, (int, Fraction)):
        return as_rational(value)
    if isinstance(value, float) and value.is_integer():
        return Fraction(int(value))
    return None


def _to_mp(value):
    """An mp number for ``value``; mp inputs keep their working precision."""
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return value
    exact = _exact(value)
    if exact is not None:
        return mpmath.mpf(exact.numerator) / exact.denominator
    approx = complex(value)
    if approx.imag == 0:
        return mpmath.mpf(approx.real)
    return mpmath.mpc(approx.real, approx.imag)


def _is_gamma_pole(point) -> bool:
    """Whether ``point`` is exactly a non-positive integer."""
    if isinstance(point, Fraction):
        return point.denominator == 1 and point <= 0
    point = mpmath.mpc(point)
    return point.imag == 0 and point.real <= 0 and mpmath.isint(point.real)


def falling_power_eval(z, rho, prec: int | None = None) -> complex:
    """Evaluate the falling power of ``z`` with general exponent ``rho``.

    For integer exponents this is the product z(z-1)...(z-rho+1), or the
    reciprocal rising product for negative ones; otherwise it is the gamma
    quotient Gamma(z+1)/Gamma(z+1-rho) through log-gamma.  Either is computed
    in arbitrary precision and rounded to a double once.  Poles of the
    quotient (z+1 a non-positive integer) raise :class:`GammaPoleError`; where
    only z+1-rho is one, the reciprocal gamma vanishes and the value is 0.
    """
    bits = prec if prec is not None else working_precision()
    with mpmath.workprec(bits):
        return complex(_falling_power_mp(z, rho))


def _falling_power_mp(z, rho):
    """Falling power as an mp complex in the ambient working precision."""
    rho_exact = _exact(rho)
    if rho_exact is not None and rho_exact.denominator == 1:
        n = int(rho_exact)
        out = mpmath.mpc(1)
        base = _to_mp(z)
        if n >= 0:
            for u in range(n):
                out *= base - u
            return out
        for u in range(1, -n + 1):
            factor = base + u
            if factor == 0:
                raise GammaPoleError(f"falling power pole at z={z}, exponent={rho}")
            out *= factor
        return 1 / out
    # argument arithmetic stays in working precision (rational offsets must
    # not collapse to doubles); exact arguments are tested for poles exactly
    top = _to_mp(z) + 1
    bottom = top - _to_mp(rho)
    points = (top, bottom)
    z_exact = _exact(z)
    if z_exact is not None and rho_exact is not None:
        points = (z_exact + 1, z_exact + 1 - rho_exact)
    if _is_gamma_pole(points[0]):
        raise GammaPoleError(f"gamma pole: z+1 = {points[0]} is a non-positive integer")
    if _is_gamma_pole(points[1]):
        # 1/Gamma(z+1-rho) vanishes there
        return mpmath.mpc(0)
    return mpmath.exp(mpmath.loggamma(top) - mpmath.loggamma(bottom))


def fraction_log_abs(x) -> float:
    """log|x| for a (possibly huge) rational, without float overflow."""
    x = as_rational(x)
    if x == 0:
        raise ValueError("log of zero")
    return _int_log(abs(x.numerator)) - _int_log(x.denominator)


def _int_log(n: int) -> float:
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 60
    return math.log(n >> shift) + shift * math.log(2)
