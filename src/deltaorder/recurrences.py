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

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .equations import DifferenceEquation
from .errors import RootRangeError
from .newton import lower_hull, s_sequence
from .polynomials import Poly, _integer_falling_basis, _newton_poly, as_rational

#: Fixed note attached to polygon reports: only the main decay term
#: n^(-mu n) e^(mu n) gamma^n is computed per branch.
UNMODELED_FACTORS_NOTE = "subexponential factors of each branch are not modeled"

_OUTSIDE = "a root is outside the double range"

#: Most steps of one rational-root search at degree 3 or more, counted as trial
#: divisions and as Horner steps over the candidate roots.  At the limit they
#: took 0.1 s, and 0.9 s at degree 500, on a shared 2-vCPU host.
MAX_DIVISOR_SEARCH = 2**20


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
        scale = math.lcm(*[q.den for q in self.window.values()])
        # tuples from lists: tuple() of a generator bypasses CPython's tuple
        # free lists when it allocates but refills them on release, so memory
        # grew with every recurrence built
        horner = tuple([
            (i, tuple([c * (scale // q.den) for c in reversed(q.nums)]))
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

    def undetermined(self, count: int) -> list[int]:
        """Stream indices 0..count that no row up to index count determines.

        Index t is determined by row t - order when that row exists
        (t - order >= ``first_row``) and the deepest entry Q_{-order} does
        not vanish there.  The rest are the indices a row reduction leaves
        to pins or free parameters, in increasing order.
        """
        deepest = self._horner[0][1]  # Q_{-order}, nonzero by construction
        out = []
        for t in range(count + 1):
            n = t - self.order
            if n >= self.first_row:
                value = 0
                for c in deepest:
                    value = value * n + c
                if value:
                    continue
            out.append(t)
        return out

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
    """Q_i from the integer sums B_{i,u} = sum_j A_{j,u+i} C(u+i, i+j).

    The nodes i - rho + u go to the Newton kernel as integers over the
    denominator of rho.
    """
    sums = [0] * (max(len(coeffs) for coeffs in falling_coeffs) - i)
    for j in range(max(0, -i), len(falling_coeffs)):
        coeffs = falling_coeffs[j]
        for u in range(j, len(coeffs) - i):
            sums[u] += coeffs[u + i] * math.comb(u + i, i + j)
    while sums and not sums[-1]:
        sums.pop()
    if not sums:
        return Poly()
    r, s = rho.numerator, rho.denominator
    return _newton_poly(1, sums, s, [(i + u) * s - r for u in range(len(sums) - 1)])


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
    falling_coeffs = [_integer_falling_basis(p) for p in eq.coeffs]
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
    d = eq.degrees()
    s = s_sequence(d)
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
    P_m, those of the residual left by deflation, as the complex doubles of
    ``_roots``.
    """
    m = eq.order
    rational, residual = _rational_roots(eq.coeffs[-1])
    numeric = [r + m for r in _roots(residual.coeffs[::-1])] if residual.degree >= 1 else []
    numeric.sort(key=lambda r: (round(r.real, 10), round(r.imag, 10)))
    return sorted([Fraction(k) for k in range(m)] + [r + m for r in rational]) + numeric


def _rational_roots(poly: Poly):
    """All rational roots (with multiplicity) plus the unfactored residual.

    The residual is the integer polynomial left after exact deflation; its
    roots are found numerically by ``_roots``.
    """
    ints = list(poly.nums)
    zeros = next((k for k, c in enumerate(ints) if c), 0)
    roots = [Fraction(0)] * zeros
    ints = ints[zeros:]
    while len(ints) > 1:
        found = _rational_root(ints)
        if found is None:
            break
        roots.append(found)
        ints = _deflate(ints, found)
    return roots, Poly._from_ints(ints)


def _rational_root(ints):
    """One rational root of an integer polynomial (no root at zero), or None.

    A linear polynomial gives its root directly and a quadratic its closed
    form, whose discriminant decides whether the roots are rational.
    Otherwise candidates are num/den with num dividing the constant and den
    the leading coefficient, each tested by the homogeneous form
    sum_k c_k num^k den^(deg-k) = 0.  Every branch returns the root that
    search meets first: smallest |num|, then den, positive first.  A search
    whose trial divisions (up to the square roots of the lead and the
    constant), or whose Horner steps over the candidates, would exceed
    ``MAX_DIVISOR_SEARCH`` raises RootRangeError before it starts.
    """
    if len(ints) == 2:
        return Fraction(-ints[0], ints[1])
    if len(ints) == 3:
        parts, exact = _quadratic_roots(ints[2], ints[1], ints[0])
        if not exact:
            return None
        return min((re for re, _ in parts), key=lambda r: (abs(r.numerator), r.denominator, r < 0))
    lead, const = abs(ints[-1]), abs(ints[0])
    few = math.isqrt(lead) + math.isqrt(const) <= MAX_DIVISOR_SEARCH
    dens, nums = (_divisors(lead), _divisors(const)) if few else ((), ())
    if not few or 2 * len(nums) * len(dens) * len(ints) > MAX_DIVISOR_SEARCH:
        raise RootRangeError(f"the divisor search for rational roots exceeds the limit of {MAX_DIVISOR_SEARCH} steps")
    for num in nums:
        for den in dens:
            if math.gcd(num, den) != 1:
                continue
            for cand in (num, -num):
                if _homogeneous_value(ints, cand, den) == 0:
                    return Fraction(cand, den)
    return None


def _divisors(n: int):
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _homogeneous_value(ints, num: int, den: int) -> int:
    """den^deg times the polynomial's value at num/den."""
    acc = 0
    power = 1
    for c in reversed(ints):
        acc = acc * num + c * power
        power *= den
    return acc


def _deflate(ints, root: Fraction):
    """Integer coefficients of P(z) / (z - root) for a rational root num/den.

    P = (den z - num) E with an integer E (Gauss's lemma), found by exact
    division from the top, and P / (z - root) = den E.
    """
    num, den = root.numerator, root.denominator
    quotient = [0] * (len(ints) - 1)
    carry = 0
    for k in range(len(ints) - 1, 0, -1):
        carry = (ints[k] + num * carry) // den
        quotient[k - 1] = carry
    return [den * e for e in quotient]


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
    hull = lower_hull(points)
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


def _characteristic_roots(on_line, right_x: int, leading):
    """Roots of  sum c_i gamma^(right - i)  over the on-segment points, sorted by modulus and angle."""
    exps = {right_x - x: leading[x] for x, _ in on_line}
    span = max(exps)
    roots = _roots([exps.get(span - i, 0) for i in range(span + 1)])
    if span > 1:  # a span-1 root is an exact Fraction
        roots.sort(key=lambda r: (round(abs(r), 10), round(math.atan2(r.imag, r.real), 10)))
    return roots


def _roots(coeffs) -> list:
    """Roots of the rational polynomial with ``coeffs``, highest power first, both ends nonzero.

    A two-term polynomial a x^n + b has the n-th roots of w = -b/a: w itself,
    an exact Fraction, at n = 1, and otherwise complex doubles of magnitude
    |w|^(1/n), exact in direction where a root lies on an axis.  Any other
    quadratic takes the closed form of ``_quadratic_roots``, and any other
    polynomial the companion-matrix eigenvalues of ``_numeric_roots``.  The
    two-term and companion branches share the rescale of ``_double_range``.
    """
    n = len(coeffs) - 1
    if any(coeffs[1:-1]):
        return _as_doubles(_quadratic_roots(*coeffs)[0]) if n == 2 else _numeric_roots(coeffs)
    w = -Fraction(coeffs[-1]) / coeffs[0]
    if n == 1:
        return [w]
    s, monic = _double_range([1] + [0] * (n - 1) + [-w])
    w = -monic[-1] / monic[0]
    mag = abs(w) ** (1.0 / n)
    phase = 0.0 if w > 0 else math.pi
    roots = []
    for k in range(n):
        # root k lies at the angle pi (2k + [w < 0]) / n, on an axis when
        # that is a whole number of quarter turns
        quarter, off = divmod(2 * (2 * k + (w < 0)), n)
        if off:
            angle = (phase + 2 * math.pi * k) / n
            roots.append(complex(mag * math.cos(angle), mag * math.sin(angle)))
        else:
            x, y = ((1, 0), (0, 1), (-1, 0), (0, -1))[quarter]
            roots.append(complex(x * mag, y * mag))
    return _scaled_back(roots, s)


def _numeric_roots(coeffs) -> list[complex]:
    """Companion-matrix roots of the rational polynomial with ``coeffs``, highest power first.

    ``np.roots`` takes the floats of the coefficients, rescaled by
    ``_double_range`` where they do not fit a double.
    """
    import numpy as np

    spread = "the roots lie too far apart to be found in double precision"
    s, floats = _double_range(coeffs)
    if floats[0] == 0 or floats[-1] == 0:
        raise RootRangeError(spread)
    try:
        roots = [complex(r) for r in np.roots(floats)]
    except np.linalg.LinAlgError:  # the companion matrix overflowed
        raise RootRangeError(spread) from None
    return _as_doubles([(r.real, r.imag) for r in _scaled_back(roots, s)])


def _double_range(coeffs):
    """(s, the floats of the coefficients in y = x / 2**s): s = 0 where every nonzero one is a normal double.

    Otherwise s is near the mean log2 of the root magnitudes, and the
    coefficients in y share one power of two that puts the largest near 2**1000.
    """
    try:
        floats = [float(c) for c in coeffs]
        if all(not c or abs(f) >= sys.float_info.min for c, f in zip(coeffs, floats)):
            return 0, floats
    except OverflowError:
        pass
    exact = [Fraction(c) for c in coeffs]
    n = len(exact) - 1
    s = round((_log2(exact[-1]) - _log2(exact[0])) / n)
    exact = [c * Fraction(2) ** (s * (n - k)) for k, c in enumerate(exact)]
    shift = max(_log2(c) for c in exact if c) - 1000
    return s, [float(c / Fraction(2) ** shift) for c in exact]


def _scaled_back(roots, s: int) -> list[complex]:
    """The roots 2**s y from the roots y of ``_double_range``'s polynomial in y."""
    if not s:
        return roots
    out = []
    for r in roots:
        try:
            x = complex(math.ldexp(r.real, s), math.ldexp(r.imag, s))
        except OverflowError:
            x = 0j  # past the largest double: rejected like a root that underflows to zero
        if r and not x:
            exponent = math.log10(abs(r)) + s * math.log10(2)
            raise RootRangeError(f"a root of magnitude 10^{exponent:.1f} is outside the double range")
        out.append(x)
    return out


def _quadratic_roots(a, b, c) -> tuple[list[tuple[Fraction, Fraction]], bool]:
    """(real, imaginary) parts of both roots of  a x^2 + b x + c, and whether they are exact.

    The coefficients are rationals with a and c nonzero.  The discriminant
    D = b^2 - 4ac is exact.  With |D| = num/den in lowest terms, the integer
    num den 4^k is zero or has at least 133 bits, and its ``math.isqrt`` over
    den 2^k is sqrt|D|: exact when num den is a square, i.e. when |D| is the
    square of a rational, and otherwise below it by less than 2^-66
    relative.  For D >= 0 the roots are q/a and c/q with
    q = -(b + sign(b) sqrt D)/2, whose two terms never cancel; they are
    exact, and rational, when sqrt D is.  For D < 0 they are the conjugates
    -b/(2a) +- i sqrt|D|/(2a).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    disc = b * b - 4 * a * c
    square = abs(disc.numerator) * disc.denominator
    k = max(0, 67 - square.bit_length() // 2)
    scaled = square << 2 * k
    root = math.isqrt(scaled)
    sqrt_disc = Fraction(root, disc.denominator << k)
    if disc < 0:
        re, im = -b / (2 * a), sqrt_disc / (2 * a)
        return [(re, im), (re, -im)], False
    q = -(b - sqrt_disc if b < 0 else b + sqrt_disc) / 2
    return [(q / a, Fraction(0)), (c / q, Fraction(0))], root * root == scaled


def _as_doubles(parts) -> list[complex]:
    """Complex doubles of roots given by (real, imaginary) parts.

    A root that rounds to zero or infinity there raises RootRangeError.
    """
    try:
        roots = [complex(re, im) for re, im in parts]
    except OverflowError:
        raise RootRangeError(_OUTSIDE) from None
    if not all(cmath.isfinite(r) and r for r in roots):
        raise RootRangeError(_OUTSIDE)
    return roots


def _log2(x: Fraction) -> int:
    """log2|x| within one, for a nonzero rational."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def sub_one_branches(polygon: AdamsPolygon) -> list[tuple[Fraction, int]]:
    """(order, span) for every segment of slope above one: orders below 1."""
    return [
        (seg.chi, seg.span)
        for seg in polygon.segments
        if seg.slope > 1 and seg.chi is not None
    ]
