"""Difference-equation data model, form conversions, and operator algebra.

Two presentations of a linear difference operator are supported:

* :class:`GeneralForm` -- a raw sum of terms  coef(z) * Delta^k f(z + s)
  with arbitrary integer argument shifts, as produced by the parser;
* :class:`DifferenceEquation` -- the canonical pure-Delta form
  P_m(z) Delta^m f(z) + ... + P_0(z) f(z) = 0 with primitive integer
  coefficients and a positive leading coefficient on P_m.

The conversion from the first to the second uses the standard
shift/difference binomial identities.  Composition treats operators as
elements of the noncommutative ring generated by multiplication-by-z and the
forward difference, with the rewrite rule

    Delta (P f) = P(z+1) Delta f + (Delta P) f.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record, _set
from .errors import DegenerateEquationError, InsufficientDataError
from .polynomials import Poly, _integer_falling_basis, chain_sum, poly_delta, stream_chain

if TYPE_CHECKING:  # pragma: no cover
    from .series import SeriesSolution


class OperatorTerm(Record):
    """One summand  coefficient(z) * Delta^delta_power f(z + shift)."""

    __slots__ = ("coefficient", "delta_power", "shift")

    def __init__(self, coefficient: Poly, delta_power: int = 0, shift: int = 0):
        if delta_power < 0:
            raise ValueError("difference power must be non-negative")
        _set(self, "coefficient", coefficient)
        _set(self, "delta_power", delta_power)
        _set(self, "shift", shift)


class GeneralForm(Record):
    """A sum of operator terms equated to zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[OperatorTerm, ...]):
        if not terms:
            raise ValueError("an equation needs at least one term")
        _set(self, "terms", terms)


class DifferenceEquation(Record):
    """Canonical operator  sum_j P_j(z) Delta^j  acting on f, order >= 1.

    Construction normalizes the coefficient vector: rational coefficients are
    scaled to primitive integers (content 1) and the leading coefficient of
    the top polynomial is made positive.  The zero operator and order-0
    operators are rejected as degenerate.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        polys = [c if isinstance(c, Poly) else Poly(c) for c in coeffs]
        while polys and polys[-1].is_zero:
            polys.pop()
        if not polys:
            raise DegenerateEquationError("all operator terms cancel")
        if len(polys) == 1:
            raise DegenerateEquationError("operator has order zero")
        _set(self, "coeffs", tuple(_canonical_scale(polys)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def degrees(self) -> list:
        """Coefficient degrees d_0..d_m (NEG_INF for vanishing P_j)."""
        return [p.degree for p in self.coeffs]

    @property
    def max_degree(self) -> int:
        return max(int(p.degree) for p in self.coeffs if not p.is_zero)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(order={self.order}, degrees={self.degrees()})"


def _canonical_scale(polys: list[Poly]) -> list[Poly]:
    den = math.lcm(*[p.den for p in polys])
    rows = [[c * (den // p.den) for c in p.nums] for p in polys]
    content = math.gcd(*[c for row in rows for c in row])
    if polys[-1].nums[-1] < 0:
        content = -content
    return [Poly._from_ints([c // content for c in row]) for row in rows]


# --- form conversions ---------------------------------------------------------


def _shift_table(g: GeneralForm) -> dict[int, Poly]:
    """Expand every term of ``g`` into pure shifts:  {s: C_s} with C_s f(z+s)."""
    table: dict[int, Poly] = {}
    for term in g.terms:
        if term.coefficient.is_zero:
            continue
        k, s = term.delta_power, term.shift
        for t in range(k + 1):
            sign = 1 if (k - t) % 2 == 0 else -1
            c = term.coefficient * (sign * math.comb(k, t))
            key = s + t
            table[key] = table.get(key, Poly()) + c
    return {s: c for s, c in table.items() if not c.is_zero}


def normalize_to_delta(g: GeneralForm) -> DifferenceEquation:
    """Rewrite a general form as a canonical pure-Delta equation.

    Each term folds straight into difference powers through
    Delta^k f(z+s) = sum_j C(s, j) Delta^(k+j) f(z).  If a shift is negative
    the whole equation is recentered (z replaced by z + a) by the smallest
    a >= 0 that makes every shift of the pure-shift expansion non-negative
    once cancelling terms are dropped.  A term still below zero after that
    can only cancel, so the pure shifts are folded in place of the terms.
    """
    terms = [(t.coefficient, t.delta_power, t.shift) for t in g.terms if not t.coefficient.is_zero]
    recenter = 0
    if any(s < 0 for _, _, s in terms):
        table = _shift_table(g)
        if not table:
            raise DegenerateEquationError("all operator terms cancel")
        recenter = max(0, -min(table))
        if any(s + recenter < 0 for _, _, s in terms):
            terms = [(c, 0, s) for s, c in table.items()]
    out = [Poly()] * (max((k + s + recenter for _, k, s in terms), default=-1) + 1)
    for c, k, s in terms:
        s += recenter
        if recenter:
            c = c.shifted(recenter)
        for j in range(s + 1):
            out[k + j] = out[k + j] + c * math.comb(s, j)
    return DifferenceEquation(out)


# --- operator algebra ---------------------------------------------------------


def _operator_coeffs(op) -> tuple[Poly, ...]:
    if isinstance(op, DifferenceEquation):
        return op.coeffs
    return tuple(c if isinstance(c, Poly) else Poly(c) for c in op)


def compose_operators(outer, inner) -> DifferenceEquation:
    """Operator product: apply ``inner`` first, then ``outer``.

    Computed by symbolic rewriting on the (z, Delta) generators via the
    difference Leibniz rule

        Delta^i (B f) = sum_t C(i, t) (Delta^t B)(z + i - t) Delta^(i-t) f,

    so the result order is the sum of the orders.  Raw coefficient sequences
    (index = difference power) are accepted alongside equations, which allows
    order-0 factors such as plain multiplication by a polynomial.
    """
    outer = _operator_coeffs(outer)
    # differences[j][t] = Delta^t B_j, up to the outer order or the first zero
    differences = []
    for b in _operator_coeffs(inner):
        table = []
        while not b.is_zero and len(table) < len(outer):
            table.append(b)
            b = poly_delta(b)
        differences.append(table)
    out: dict[int, Poly] = {}
    for i, a in enumerate(outer):
        if a.is_zero:
            continue
        for j, table in enumerate(differences):
            for t, piece in enumerate(table[: i + 1]):
                piece = piece.shifted(i - t) * (a * math.comb(i, t))
                key = i - t + j
                out[key] = out.get(key, Poly()) + piece
    coeffs = [out.get(k, Poly()) for k in range(max(out, default=0) + 1)]
    return DifferenceEquation(coeffs)


def apply_operator(eq: DifferenceEquation, solution: "SeriesSolution", upto: int):
    """Apply the operator to a binomial series, exactly, in the falling basis.

    The expansion uses the product rule for integer and general falling powers
    directly (independent of any derived recurrence), and returns the exact
    coefficients 0..upto of the image series; an all-zero result certifies the
    series solves the equation up to the truncation.

    With rho = r/s, the falling power ff(n + rho, L) is the integer
    prod_u (n s + r - u s) over s^L.  All weights are brought to the common
    denominator s^Lmax and summed as one integer per (output, input) pair;
    each output sums its (input, weight) pairs, shallowest input first, over
    the stream's integer numerators and denominator chain, built once per
    call, with the one row kernel :func:`polynomials.chain_sum`, and is a
    single Fraction.

    The solution must provide at least ``upto + order + 1`` coefficients.
    """
    rho = solution.rho_offset
    coeffs = solution.coeffs
    needed = upto + eq.order
    if len(coeffs) < needed + 1:
        raise InsufficientDataError(
            f"need {needed + 1} series coefficients, have {len(coeffs)}"
        )
    # offset -> {falling length L: summed integer weight}
    weights: dict[int, dict[int, int]] = {}
    for j, p in enumerate(eq.coeffs):
        for t, coeff_t in enumerate(_integer_falling_basis(p)):
            if coeff_t == 0:
                continue
            for k in range(t + 1):
                by_length = weights.setdefault(t - k - j, {})
                by_length[j + k] = by_length.get(j + k, 0) + coeff_t * math.comb(t, k)
    top = max(length for by_length in weights.values() for length in by_length)
    r, s = rho.numerator, rho.denominator
    nums, chain = stream_chain(coeffs[: needed + 1])
    # output index -> [(input index, integer weight)]
    rows: list[list[tuple[int, int]]] = [[] for _ in range(upto + 1)]
    for n in range(needed + 1):
        if not nums[n]:
            continue
        # falling[L] = s^(top - L) * prod_{u < L} (n s + r - u s)
        falling = [1] * (top + 1)
        for u in range(top):
            falling[u + 1] = falling[u] * (n * s + r - u * s)
        if s != 1:
            falling = [f * s ** (top - length) for length, f in enumerate(falling)]
        for offset, by_length in weights.items():
            out = n + offset
            if 0 <= out <= upto:
                total = sum(w * falling[length] for length, w in by_length.items())
                if total:
                    rows[out].append((n, total))
    scale = s**top
    image = []
    for terms in rows:
        common, total = chain_sum(chain, terms, nums)
        image.append(Fraction(total, common * scale))
    return image
