"""Exact rational polynomials and the forward-difference calculus.

A polynomial is a dense list of integer numerators over one common
denominator in the monomial basis, so every operation here is exact and
runs on plain ``int``s.  ``fractions.Fraction`` values appear only at the
edges: the public ``Poly.coeffs`` tuple, built once on first read, and
scalar inputs and outputs.  Taylor shifts, falling powers and expansions out
of the falling-factorial basis go through one integer kernel that expands a
Newton form, and the one conversion into that basis takes integer forward
differences; nothing is cached between calls.  A stream's values enter a
row sum as integer numerator columns over one prefix-lcm chain of their
denominators, built once per stream index (:func:`denominator_chain`), and
:func:`chain_sum` is the one kernel that sums (index, weight) pairs over
it, for verification, operator application and the solver's columns alike.
:func:`format_rational` writes the exact numbers that the CLI prints.
Everything here is exact, and the module imports only the standard library.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import ConfigurationError

#: Degree of the zero polynomial: ordered below every integer.
NEG_INF = float("-inf")


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


#: Largest working precision in bits.  ``eval <cubic> --terms 400 --radii 400
#: --samples 4096`` took 1.2 s of wall at 128 bits, 3.1 s at 1024, 6.0 s at
#: 2048, 21.7 s at 4096 and 70.6 s at 8192 on a shared 2-vCPU host.
MAX_PRECISION = 1024


def working_precision() -> int:
    """Numeric working precision in bits (env DELTAORDER_PRECISION, default 128).

    Values below 53 are raised to double precision; a value that is not an
    integer, or one above MAX_PRECISION, raises ConfigurationError.
    """
    raw = os.environ.get("DELTAORDER_PRECISION")
    if raw is None:
        return 128
    try:
        bits = int(raw)
    except ValueError:
        raise ConfigurationError(f"DELTAORDER_PRECISION={raw!r} is not an integer") from None
    if bits > MAX_PRECISION:
        raise ConfigurationError(f"DELTAORDER_PRECISION={bits} exceeds the limit {MAX_PRECISION}")
    return max(bits, 53)


MAX_SAMPLES = 4096
"""Upper bound on the circle samples of ``max_modulus`` and ``empirical_order``.

It sits beside ``working_precision``, in a module that imports only the
standard library, so that the CLI's help text reads it for free.
"""

#: Most radii that ``empirical_order`` takes.  At --samples 4096 and 128 bits,
#: ``eval <cubic> --terms 400`` took 3.9 s for 4 radii, 12.5 s for 16, 25.2 s
#: for 32 and 49.4 s for 64 on a shared 2-vCPU host.  16 radii at
#: MAX_PRECISION, the corner of the two limits, took 36.5 s.
MAX_RADII = 16


class Poly:
    """Univariate polynomial over the rationals (monomial basis).

    The value is held as integer numerators over one positive denominator:
    ``nums[k] / den`` is the coefficient of ``z**k``, with
    gcd(den, *nums) = 1 and trailing zeros trimmed.  That pair is canonical,
    so equality and hashing use it, and ``+``, ``-``, ``*``, ``**`` and
    :meth:`shifted` work on ``nums`` alone.  The zero polynomial has
    ``nums == ()`` and degree ``NEG_INF``.  ``coeffs``, the tuple of
    ``Fraction`` coefficients, is built on its first read and kept.
    """

    __slots__ = ("den", "nums", "_coeffs")

    def __init__(self, coeffs=()):
        den, nums = common_denominator(coeffs)
        while nums and not nums[-1]:
            nums.pop()
        _fill(self, den, tuple(nums))

    @classmethod
    def _from_ints(cls, nums, den: int = 1) -> Poly:
        """sum_k (nums[k] / den) z^k for integers and a positive ``den``."""
        top = len(nums)
        while top and not nums[top - 1]:
            top -= 1
        nums = nums[:top]
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [c // g for c in nums]
        poly = object.__new__(cls)
        _fill(poly, den, tuple(nums))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[k]`` is the exact coefficient of ``z**k``."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self.den
            coeffs = tuple([Fraction(c, den) for c in self.nums])
            object.__setattr__(self, "_coeffs", coeffs)
        return coeffs

    @property
    def degree(self) -> int | float:
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __add__(self, other) -> Poly:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._from_ints(out, den)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._from_ints([-c for c in self.nums], self.den)

    def __sub__(self, other) -> Poly:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, int):
            return Poly._from_ints([c * other for c in self.nums], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return Poly._from_ints([c * p for c in self.nums], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        den = self.den * other.den
        if len(other.nums) == 1:  # a constant factor scales the numerators
            c = other.nums[0]
            return Poly._from_ints([a * c for a in self.nums], den)
        if len(self.nums) == 1:
            c = self.nums[0]
            return Poly._from_ints([b * c for b in other.nums], den)
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        terms = [(j, b) for j, b in enumerate(other.nums) if b]
        for i, a in enumerate(self.nums):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return Poly._from_ints(out, den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative polynomial power")
        nums = self.nums
        if exponent and nums and not any(nums[:-1]):
            # a monomial (c/den) z^k: its power is c^e z^(ke) over den^e, still
            # in lowest terms since gcd(c, den) = 1
            powered = [0] * ((len(nums) - 1) * exponent)
            powered.append(nums[-1] ** exponent)
            return Poly._from_ints(powered, self.den**exponent)
        result = Poly._from_ints((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

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
        top = len(self.nums) - 1
        return _newton_poly(self.den, self.nums, offset.denominator, [-offset.numerator] * top)

    def __repr__(self):
        # Fraction's repr, with ints printed in pieces below the int/str digit limit
        text = _decimal_text
        return f"Poly([{', '.join(f'Fraction({text(c.numerator)}, {text(c.denominator)})' for c in self.coeffs)}])"

    def __str__(self):
        return format_poly(self)


def _fill(poly: Poly, den: int, nums: tuple) -> None:
    object.__setattr__(poly, "den", den)
    object.__setattr__(poly, "nums", nums)
    object.__setattr__(poly, "_coeffs", None)


def _coerce_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly._from_ints((value,))
    if isinstance(value, Fraction):
        return Poly._from_ints((value.numerator,), value.denominator)
    return NotImplemented


def _decimal_text(n: int) -> str:
    """str(n) for an int of any size, printed in pieces of at most 603 digits.

    CPython's str() refuses an int of more decimal digits than the
    interpreter's int/str digit limit (4300 by default, 640 at the least).
    """
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _decimal_text(-n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10**half)
    return _decimal_text(high) + _decimal_text(low).zfill(half)


def format_rational(value) -> str:
    """``str(value)`` for an int or Fraction of any size: ``num/den``, or ``num`` alone over 1."""
    text = _decimal_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_decimal_text(value.denominator)}"


def format_poly(p: Poly) -> str:
    """Render a polynomial in descending powers, e.g. ``6z^2 + 19z + 15``."""
    text = ""
    for power in range(len(p.nums) - 1, -1, -1):
        c = p.coeffs[power]
        if c:
            var = "" if power == 0 else "z" if power == 1 else f"z^{power}"
            number = "" if var and abs(c) == 1 else format_rational(abs(c))
            text += f" {'-' if c < 0 else '+'} {number}{var}"
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


def poly_delta(p: Poly) -> Poly:
    """Forward difference P(z+1) - P(z); drops the degree by exactly one."""
    return p.shifted(1) - p


# --- exact row sums ----------------------------------------------------------

#: Slack, in bits, of the rule that starts a new segment of a denominator chain
#: where its running lcm would pass 2 bits(dens[i]) + CHAIN_SLACK_BITS.  The
#: cubic's rows over a 3201-term stream of distinct 61-bit prime denominators
#: verified in 1.5 s on one unsegmented chain, 0.063 s over one lcm per row and
#: 0.047-0.074 s with this rule (best of five, shared 2-vCPU host).  No stream
#: that solve-stream solves or verifies reaches the rule.
CHAIN_SLACK_BITS = 64


def denominator_chain(dens, chain=None) -> tuple[list[int], list[int], list[int]]:
    """The prefix-lcm chain ``(common, step, scale)`` of a stream's denominators.

    ``dens[i]`` is the positive denominator of stream value i, or 0 for a
    zero value, whose scale 0 drops it from every sum.  ``common[i]`` is the
    lcm of the denominators from the start of i's segment to i, ``step[i]`` is
    common[i] // common[i-1], 0 where a segment starts, and ``scale[i]`` is
    common[i] // dens[i] (0 for a zero value).  Where dens[i] is a multiple
    of common[i-1], as in a decaying stream, the index costs one divmod and
    common[i] is dens[i] itself; elsewhere it costs a gcd too, and a segment
    starts where the running lcm would pass 2 bits(dens[i]) +
    ``CHAIN_SLACK_BITS``, so no common is much wider than its own
    denominator.  A given ``chain`` is extended by ``dens`` in place.
    """
    common, step, scale = chain = chain or ([], [], [])
    prev = common[-1] if common else 1
    for d in dens:
        if not d:  # a zero value keeps the running lcm
            d, q, s = prev, 1 if common else 0, 0
        elif not common:
            q, s = 0, 1
        else:
            q, r = divmod(d, prev)
            s = 1
            if r:
                g = math.gcd(prev, r)
                q = d // g
                lcm = prev if q == 1 else prev * q
                if lcm.bit_length() > 2 * d.bit_length() + CHAIN_SLACK_BITS:
                    q = 0
                else:
                    d, s = lcm, prev // g
        common.append(d)
        step.append(q)
        scale.append(s)
        prev = d
    return chain


def stream_chain(coeffs) -> tuple[list[int], tuple[list[int], list[int], list[int]]]:
    """``(nums, chain)``: a finished stream's integer numerators and its denominator chain."""
    return [c.numerator for c in coeffs], denominator_chain([c.denominator if c else 0 for c in coeffs])


def chain_sum(chain, terms, nums) -> tuple[int, int]:
    """``(common, total)``: a row of stream values summed over one denominator.

    ``terms`` are (i, c) pairs over one stream's :func:`denominator_chain`, i
    increasing: c times the value nums[i] / dens[i], all integers.  The row
    sums to total / common.  Inside a segment the sum runs by Horner's rule
    from the first term's index, the total times step[j] at each later index
    j plus c * scale[i] times the next numerator: in a nested stream each
    step is a few words and each scale 1.  The totals of the segments a row
    crosses join over the lcm of their commons.  ``common`` depends on the
    first and last index only (1 for no terms).
    """
    commons, step, scale = chain
    if not terms:
        return 1, 0
    parts = []
    total = 0
    last = terms[0][0]
    for i, c in terms:
        while last < i:
            last += 1
            q = step[last]
            if not q:
                parts.append((commons[last - 1], total))
                total = 0
            elif q != 1:
                total *= q
        s = scale[i]
        total += (c * s if s != 1 else c) * nums[i]
    common = commons[last]
    for part_common, part_total in reversed(parts):
        lcm = math.lcm(part_common, common)
        total = part_total * (lcm // part_common) + total * (lcm // common)
        common = lcm
    return common, total


# --- Newton forms and the falling-factorial basis ---------------------------


def common_denominator(values) -> tuple[int, list[int]]:
    """``(den, ints)``: the lcm of the denominators and the numerators over it."""
    values = [v if isinstance(v, int) else as_rational(v) for v in values]
    # star-args from a list: a generator's args tuple is resized, which moves it
    # between CPython's per-size tuple free lists and lets them grow
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _newton_poly(scale: int, ints, step: int, xs) -> Poly:
    """The Newton sum with c_u = ints[u] / scale and x_k = xs[k] / step.

    ``ints`` has a nonzero last entry and ``xs`` at least len(ints) - 1
    entries; ``scale`` and ``step`` are positive.  Horner's rule
    R <- R (S z - X_u) + C_u S^(top-u) on integer lists gives ``scale``
    S^top times the sum (von zur Gathen & Gerhard, ISSAC 1997), so the
    result is the integer list over that one denominator.  A Taylor shift by
    a takes the nodes -a, -a, ...; c ff(z, j) the arguments ``1, [0] * j + [c], 1, range(j)``.
    """
    top = len(ints) - 1
    acc = [ints[top]]
    power = 1  # step^(top-u)
    for u in range(top - 1, -1, -1):
        x = xs[u]
        if step == 1:  # integer nodes: no multiplications by the step
            acc = [ints[u] - x * acc[0], *[a - x * b for a, b in zip(acc, acc[1:])], acc[-1]]
            continue
        power *= step
        acc = [
            ints[u] * power - x * acc[0],
            *[step * a - x * b for a, b in zip(acc, acc[1:])],
            step * acc[-1],
        ]
    return Poly._from_ints(acc, scale * power)


def _integer_falling_basis(p: Poly) -> list[int]:
    """Falling-factorial coefficients of an integer polynomial, as ints.

    The coefficient of ff(z, t) is Delta^t P(0) / t!, which is an integer
    when P has integer coefficients, so the division is exact.  The
    differences are taken on the integer values P(0), ..., P(deg P).
    """
    if p.den != 1:
        raise ArithmeticError("canonical equation has a non-integer falling weight")
    values = []
    for x in range(len(p.nums)):
        acc = 0
        for c in reversed(p.nums):
            acc = acc * x + c
        values.append(acc)
    out = []
    factorial = 1
    while values:
        out.append(values[0] // factorial)
        values = [b - a for a, b in zip(values, values[1:])]
        factorial *= len(out)
    return out


def _int_log(n: int) -> float:
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 60
    return math.log(n >> shift) + shift * math.log(2)
