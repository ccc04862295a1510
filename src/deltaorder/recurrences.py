"""Coefficient recurrences for binomial-series solutions, and their polygons.

Substituting a series  f(z) = sum a_n ff(z, n + rho)  into a canonical
difference equation and expanding everything over falling powers yields, for
each output index n, one exact linear row

    sum_i  a_{n-i} * Q_i(n)  =  0,

where the window polynomials Q_i are indexed by the back-shift i running
from -m (the equation order) to d (the largest coefficient degree).  With
A_{j,t} the falling-basis coefficients of P_j, regrouping by u = t - i gives

    Q_i(n) = sum_u B_{i,u} ff(n + rho - i, u),
    B_{i,u} = sum_j A_{j,u+i} C(u+i, i+j),

so each entry is one Newton form in n, with the scalar sums as coefficients
and the nodes i - rho, i - rho + 1, ....  With a nonzero offset rho the rows
for negative n are genuine constraints; their lowest row gives the indicial
polynomial ff(rho, m) P_m(rho - m), whose roots are the admissible offsets.

The asymptotic regime of the recurrence is read off a convex broken line
over the points (index, D - deg Q): each segment carries a rational slope,
a horizontal span, and the roots of a characteristic polynomial built from
the leading coefficients of the on-segment entries.  Slopes above one signal
coefficient decay like n^(-slope*n), i.e. an entire limit of growth order
1/slope; the subexponential factors multiplying that main term are not
modeled here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .equations import DifferenceEquation
from .newton import analyze
from .polynomials import (
    NEG_INF,
    Poly,
    as_rational,
    binomial,
    common_denominator,
    expand_newton,
    to_falling_basis,
)

#: Fixed note attached to polygon reports: only the main decay term
#: n^(-mu n) e^(mu n) gamma^n is computed per branch.
UNMODELED_FACTORS_NOTE = "subexponential factors of each branch are not modeled"


@dataclass(frozen=True)
class CoefficientRecurrence:
    """Exact window rows  sum_i a_{n-i} Q_i(n) = 0  for a coefficient stream.

    ``window`` maps every back-shift index in [-order, max_index] to its
    polynomial (possibly zero inside the range); the entry at -order is
    nonzero.  ``rho_offset`` is the falling-power offset of the generating
    series; rows start at ``first_row`` (0 for offset zero, else -order).
    ``scale`` is the lcm of the window's coefficient denominators: 1 at
    offset zero, a power of 2 at offset 3/2.
    """

    window: dict[int, Poly]
    rho_offset: Fraction = Fraction(0)
    scale: int = field(init=False, compare=False, repr=False)
    # (back-shift, integer coefficients of scale * Q_i, highest power first)
    _horner: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.window:
            raise ValueError("empty recurrence window")
        if self.window[min(self.window)].is_zero:
            raise ValueError("vanishing entry at the deepest back-shift")
        scale = math.lcm(*(c.denominator for q in self.window.values() for c in q.coeffs))
        # tuples from lists: tuple() of a generator bypasses CPython's tuple
        # free lists when it allocates but refills them on release, so memory
        # grew with every recurrence built
        horner = tuple([
            (i, tuple([c.numerator * (scale // c.denominator) for c in reversed(q.coeffs)]))
            for i, q in sorted(self.window.items())
            if not q.is_zero
        ])
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_horner", horner)

    @property
    def order(self) -> int:
        return -min(self.window)

    @property
    def max_index(self) -> int:
        return max(self.window)

    @property
    def first_row(self) -> int:
        return 0 if self.rho_offset == 0 else -self.order

    @property
    def span(self) -> int:
        return self.max_index + self.order

    def row(self, n: int) -> list[tuple[int, int]]:
        """Row at output index n, times ``scale``: pairs (stream index, value).

        Each value is the integer scale * Q_i(n), evaluated by Horner's rule
        in integers, so the exact row reads sum value * a_index = 0 after
        division by ``scale``.  Stream indices below zero are omitted (those
        coefficients are zero by convention); zero window values are dropped.
        """
        out = []
        for i, coeffs in self._horner:
            idx = n - i
            if idx < 0:
                continue
            value = 0
            for c in coeffs:
                value = value * n + c
            if value:
                out.append((idx, value))
        return out


def _window_entry(falling_coeffs, i: int, rho: Fraction) -> Poly:
    """Q_i from the scalar sums B_{i,u} = sum_j A_{j,u+i} C(u+i, i+j)."""
    sums = [Fraction(0)] * (max(len(coeffs) for coeffs in falling_coeffs) - i)
    for j in range(max(0, -i), len(falling_coeffs)):
        coeffs = falling_coeffs[j]
        for u in range(j, len(coeffs) - i):
            sums[u] += coeffs[u + i] * binomial(u + i, i + j)
    return expand_newton(sums, itertools.count(i - rho))


def derive_recurrence(eq: DifferenceEquation) -> CoefficientRecurrence:
    """Window rows for plain binomial series (offset zero)."""
    return shifted_recurrence(eq, Fraction(0))


def shifted_recurrence(eq: DifferenceEquation, rho) -> CoefficientRecurrence:
    """Window rows for series with falling-power offset ``rho``.

    The window entry at back-shift i collects, over all equation terms j and
    falling-basis coefficients A_{j,t} of P_j,

        Q_i(n) = sum_{j,t} A_{j,t} C(t, i+j) ff(n - i + rho, t - i)
               = sum_u B_{i,u} ff(n + rho - i, u),  u = t - i,

    so it is one Newton-form expansion of the scalar sums
    B_{i,u} = sum_j A_{j,u+i} C(u+i, i+j) at the nodes u + i - rho.  At rho = 0
    this is the plain derivation.  ``rho`` must not be a negative integer
    (the series offset would collide with a falling-power annihilation).
    """
    rho = as_rational(rho)
    if rho.denominator == 1 and rho < 0:
        raise ValueError("offset must not be a negative integer")
    falling_coeffs = [to_falling_basis(p) for p in eq.coeffs]
    window = {
        i: _window_entry(falling_coeffs, i, rho)
        for i in range(-eq.order, eq.max_degree + 1)
    }
    rec = CoefficientRecurrence(window=window, rho_offset=rho)
    _check_degree_chain(eq, rec)
    return rec


def _check_degree_chain(eq: DifferenceEquation, rec: CoefficientRecurrence):
    """Window degrees must follow the vertex-chain profile.

    A violation means the derivation itself is wrong, so it raises
    ArithmeticError rather than returning a window that would mislead.
    """
    analysis = analyze(eq)
    d, s = analysis.degrees, analysis.s_seq
    first, last = s[0], s[-1]
    for k, q in rec.window.items():
        if k > d[last] - last and not q.is_zero:
            raise ArithmeticError(f"window entry {k} should vanish")
        if k < d[first] - first and q.degree > d[first] - k:
            raise ArithmeticError(f"window entry {k} exceeds the degree bound")
    for vertex in s:
        k = d[vertex] - vertex
        if rec.window[k].degree != vertex:
            raise ArithmeticError(f"window entry {k} must have degree {vertex}")


def indicial_exponents(eq: DifferenceEquation) -> list:
    """Admissible series offsets: all roots of the indicial polynomial.

    In the row at output index -m only a_0 survives, multiplied by
    sum_t A_{m,t} ff(rho, t + m) = ff(rho, m) P_m(rho - m), with A_{m,t} the
    falling-basis coefficients of the top equation polynomial.  The roots are
    therefore 0..m-1 together with m + r for every root r of P_m.  Rational
    roots are returned exactly (as Fractions, sorted); the remaining roots of
    P_m numerically via companion-matrix eigenvalues.
    """
    m = eq.order
    rational, residual = _rational_roots(eq.coeffs[-1])
    numeric = []
    if residual.degree >= 1:
        arr = np.array([float(c) for c in reversed(residual.coeffs)])
        numeric = [complex(r) + m for r in np.roots(arr)]
    numeric.sort(key=lambda r: (round(r.real, 10), round(r.imag, 10)))
    return sorted([Fraction(k) for k in range(m)] + [r + m for r in rational]) + numeric


def _rational_roots(poly: Poly):
    """All rational roots (with multiplicity) plus the unfactored residual."""
    roots: list[Fraction] = []
    # factor out the root at zero first
    while not poly.is_zero and poly.coeffs[0] == 0:
        roots.append(Fraction(0))
        poly = Poly(poly.coeffs[1:])
    ints = common_denominator(poly.coeffs)[1]
    while len(ints) > 1:
        found = _rational_root(ints)
        if found is None:
            break
        roots.append(found)
        ints = _deflate(ints, found)
    return roots, Poly([Fraction(c) for c in ints])


def _rational_root(ints):
    """One rational root of an integer polynomial (no root at zero), or None.

    A linear polynomial gives its root directly; otherwise candidates are
    num/den with num dividing the constant and den the leading coefficient.
    """
    if len(ints) == 2:
        root = Fraction(-ints[0], ints[1])
        if _eval_int_poly(ints, root) != 0:
            raise ArithmeticError(f"linear root {root} does not vanish")
        return root
    dens = _divisors(abs(ints[-1]))
    for num in _divisors(abs(ints[0])):
        for den in dens:
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if _eval_int_poly(ints, cand) == 0:
                    return cand
    return None


def _divisors(n: int):
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


def _eval_int_poly(ints, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _deflate(ints, root: Fraction):
    out = [Fraction(0)] * (len(ints) - 1)
    carry = Fraction(0)
    for k in range(len(ints) - 1, 0, -1):
        carry = carry * root + ints[k]
        out[k - 1] = carry
    return common_denominator(out)[1]


# --- convex broken line over the window --------------------------------------


@dataclass(frozen=True)
class PolygonSegment:
    """One segment: rational slope, horizontal span, characteristic roots."""

    slope: Fraction
    span: int
    start: tuple[int, int]
    end: tuple[int, int]
    char_roots: tuple
    chi: Fraction | None  # 1/slope when positive, else None


@dataclass(frozen=True)
class AdamsPolygon:
    """Points (index, D - deg Q) and the convex chain beneath them."""

    points: tuple[tuple[int, int], ...]
    segments: tuple[PolygonSegment, ...]
    normalization_degree: int
    normalization_index: int
    note: str = UNMODELED_FACTORS_NOTE


def adams_polygon(rec: CoefficientRecurrence) -> AdamsPolygon:
    """Build the convex broken line of a recurrence window.

    Points use the shifted index i (0 at the deepest back-shift) and
    j = D - deg Q, D the maximal window degree; identically-zero window
    entries contribute no point.  The chain is the lower hull in j, so its
    slopes strictly increase; each segment's characteristic polynomial takes
    the leading coefficients of the on-segment points with exponent equal to
    the horizontal offset from the segment's right end.  A single-point
    window yields no segments.
    """
    base = min(rec.window)
    entries = [
        (i - base, q) for i, q in sorted(rec.window.items()) if not q.is_zero
    ]
    if not entries:
        raise ValueError("empty recurrence window")
    top_degree = max(int(q.degree) for _, q in entries)
    norm_index = min(i for i, q in entries if q.degree == top_degree)
    points = tuple((i, top_degree - int(q.degree)) for i, q in entries)
    leading = {i: q.leading_coefficient for i, q in entries}
    hull = _lower_hull(points)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        span = x2 - x1
        on_line = [
            (x, y)
            for x, y in points
            if x1 <= x <= x2 and (y - y1) * (x2 - x1) == (y2 - y1) * (x - x1)
        ]
        roots = _characteristic_roots(on_line, x2, leading)
        segments.append(
            PolygonSegment(
                slope=slope,
                span=span,
                start=(x1, y1),
                end=(x2, y2),
                char_roots=tuple(roots),
                chi=Fraction(1) / slope if slope > 0 else None,
            )
        )
    return AdamsPolygon(
        points=points,
        segments=tuple(segments),
        normalization_degree=top_degree,
        normalization_index=norm_index + base,
    )


def _lower_hull(points):
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _characteristic_roots(on_line, right_x: int, leading):
    """Roots of  sum c_i gamma^(right - i)  over the on-segment points."""
    exps = {right_x - x: leading[x] for x, _ in on_line}
    span = max(exps)
    if len(exps) == 2 and set(exps) == {0, span}:
        # two-term segment: the span-th roots of -B/A, A at the left end
        w = -exps[0] / exps[span]
        if span == 1:
            return [w]
        mag = abs(w) ** (1.0 / span)
        phase = 0.0 if w > 0 else math.pi
        two_pi = 2 * math.pi
        roots = [
            complex(
                mag * np.cos((phase + two_pi * k) / span),
                mag * np.sin((phase + two_pi * k) / span),
            )
            for k in range(span)
        ]
    else:
        arr = np.zeros(span + 1)
        for e, c in exps.items():
            arr[span - e] = float(c)
        roots = [complex(r) for r in np.roots(arr)]
    roots.sort(key=lambda r: (round(abs(r), 10), round(np.angle(r), 10)))
    return roots


def degree_profile(rec: CoefficientRecurrence, mu) -> list:
    """Degrees after the factorial-power substitution: deg Q + i*mu per index.

    Entries are exact rationals over the shifted index 0..span; zero window
    entries give NEG_INF.  At mu equal to the reciprocal of an admissible
    order, exactly the two predicted indices tie for the strict maximum.
    """
    mu = as_rational(mu)
    if mu <= 0:
        raise ValueError("substitution exponent must be positive")
    base = min(rec.window)
    out = []
    for i in range(rec.span + 1):
        q = rec.window.get(base + i, Poly())
        if q.is_zero:
            out.append(NEG_INF)
        else:
            out.append(q.degree + i * mu)
    return out


def sub_one_branches(polygon: AdamsPolygon) -> list[tuple[Fraction, int]]:
    """(order, span) for every segment of slope above one: orders below 1."""
    return [
        (seg.chi, seg.span)
        for seg in polygon.segments
        if seg.slope > 1 and seg.chi is not None
    ]
