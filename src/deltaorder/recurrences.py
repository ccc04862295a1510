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
and the nodes i - rho, i - rho + 1, ....  The sums, which do not depend on
rho, are what a recurrence stores: falling powers are monic, so they give
each entry's degree and leading coefficient, and the rows' values, directly;
only ``analyze`` prints the entries as polynomials in n.  With a nonzero
offset rho the rows for negative n are genuine constraints; their lowest row
gives the indicial polynomial ff(rho, m) P_m(rho - m), whose roots are the
admissible offsets.

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
import functools
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

    ``sums`` maps every back-shift index in [-order, max_index] to the
    integer sums B_{i,0..deg} of  Q_i(n) = sum_u B_{i,u} ff(n + rho - i, u),
    the last one nonzero (a zero entry is empty); the entry at -order is
    nonzero.  ``rho_offset`` = r/s is the falling-power offset of the
    generating series; rows start at ``first_row`` (0 for offset zero, else
    -order).  ``scale`` = s^D, D the largest entry degree, clears the rows'
    denominators.  ``rows`` is the one way to read the rows, in order from
    ``first_row``; which indices they leave free is for a row reduction to
    find.
    """

    sums: dict[int, tuple[int, ...]]
    rho_offset: Fraction = Fraction(0)
    scale: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sums = {i: tuple(b) for i, b in sorted(self.sums.items())}
        if not sums:
            raise ValueError("empty recurrence window")
        if not sums[min(sums)]:
            raise ValueError("vanishing entry at the deepest back-shift")
        if any(b and not b[-1] for b in sums.values()):
            raise ValueError("a window entry ends in a zero sum")
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "scale", self.rho_offset.denominator ** (max(map(len, sums.values())) - 1))

    @property
    def order(self) -> int:
        return -min(self.sums)

    @property
    def max_index(self) -> int:
        return max(self.sums)

    @property
    def first_row(self) -> int:
        return 0 if self.rho_offset == 0 else -self.order

    @property
    def span(self) -> int:
        return self.max_index + self.order

    @functools.cached_property
    def window(self) -> dict[int, Poly]:
        """Every entry Q_i as a polynomial in n, built on first use: only ``analyze`` prints it."""
        r, s = self.rho_offset.numerator, self.rho_offset.denominator
        return {
            i: _newton_poly(1, b, s, [(i + u) * s - r for u in range(len(b) - 1)]) if b else Poly()
            for i, b in self.sums.items()
        }

    def rows(self, last: int, modulus: int = 1):
        """(n, row) for n from ``first_row`` to ``last``, each row times ``scale``.

        A row lists pairs (stream index, value), each value the integer
        scale * Q_i(n), from the deepest entry up; stream indices below zero
        (zero coefficients by convention) and zero values are omitted.  The
        values come by Horner's rule in integers over the Newton factors
        n s - ((i + u) s - r), rho = r/s, on the sums lifted once to
        B_{i,u} s^(D - u), so that every value lands on the common
        ``scale`` = s^D.  At an integer offset r, ff(k, u) = 0 for
        u > k = n + r - i >= 0, so Horner's rule starts at B_{i,k} where k
        is below the entry's degree.

        Only the entries whose stream index n - i is a multiple of
        ``modulus`` are listed: a stream supported on multiples of it meets
        no other.  The entries are grouped by i mod ``modulus`` once per
        call, and row n reads the group of n mod ``modulus``.
        """
        r, s = self.rho_offset.numerator, self.rho_offset.denominator
        depth = max(map(len, self.sums.values())) - 1
        # k = n + r - i is below some entry's degree only while n < steady
        steady = self.max_index + depth - r if s == 1 else self.first_row
        groups = [[] for _ in range(modulus)]
        for i, b in self.sums.items():
            if b:
                lead, *rest = [c * s ** (depth - u) for u, c in enumerate(b)][::-1]
                groups[i % modulus].append((i, r - (i + len(b) - 1) * s, lead, rest))
        for n in range(self.first_row, last + 1):
            x, out = n * s, []
            low = n < steady
            for i, offset, value, rest in groups[n % modulus]:
                if i > n:  # a negative stream index, here and in every later entry
                    break
                factor = x + offset
                if low and 0 <= (k := n + r - i) < len(rest):
                    # every falling power above ff(k, k) vanishes at k
                    value, factor, rest = rest[-1 - k], 0, rest[len(rest) - k :]
                for c in rest:
                    factor += s
                    value = value * factor + c
                if value:
                    out.append((n - i, value))
            yield n, out


def _window_entry(falling_coeffs, i: int) -> tuple[int, ...]:
    """The integer sums B_{i,u} = sum_j A_{j,u+i} C(u+i, i+j) of Q_i, without trailing zeros."""
    sums = [0] * (max(len(coeffs) for coeffs in falling_coeffs) - i)
    for j in range(max(0, -i), len(falling_coeffs)):
        coeffs = falling_coeffs[j]
        for u in range(j, len(coeffs) - i):
            sums[u] += coeffs[u + i] * math.comb(u + i, i + j)
    while sums and not sums[-1]:
        sums.pop()
    return tuple(sums)


def derive_recurrence(eq: DifferenceEquation) -> CoefficientRecurrence:
    """Window rows for plain binomial series (offset zero)."""
    return shifted_recurrence(eq, Fraction(0))


def shifted_recurrence(eq: DifferenceEquation, rho) -> CoefficientRecurrence:
    """Window rows for series with falling-power offset ``rho``; at 0 the plain derivation.

    The entries' sums (``_window_entry``) do not depend on ``rho``; only the
    rows' Newton nodes do.  ``rho`` must not be a negative integer (the
    series offset would collide with a falling-power annihilation).
    """
    rho = as_rational(rho)
    if rho.denominator == 1 and rho < 0:
        raise ValueError("offset must not be a negative integer")
    falling_coeffs = [_integer_falling_basis(p) for p in eq.coeffs]
    sums = {i: _window_entry(falling_coeffs, i) for i in range(-eq.order, eq.max_degree + 1)}
    rec = CoefficientRecurrence(sums=sums, rho_offset=rho)
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
    for k, b in rec.sums.items():
        if k > d[last] - last and b:
            raise ArithmeticError(f"window entry {k} should vanish")
        if k < d[first] - first and len(b) - 1 > d[first] - k:
            raise ArithmeticError(f"window entry {k} exceeds the degree bound")
    for vertex in s:
        k = d[vertex] - vertex
        if len(rec.sums[k]) - 1 != vertex:
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
    base = -rec.order
    entries = {i - base: b for i, b in rec.sums.items() if b}
    top_degree = max(len(b) - 1 for b in entries.values())
    points = tuple((i, top_degree - len(b) + 1) for i, b in entries.items())
    leading = {i: b[-1] for i, b in entries.items()}
    hull = lower_hull(points)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        on_line = [(x, y) for x, y in points if x1 <= x <= x2 and (y - y1) * (x2 - x1) == (y2 - y1) * (x - x1)]
        roots = tuple(_characteristic_roots(on_line, x2, leading))
        chi = 1 / slope if slope > 0 else None
        segments.append(
            PolygonSegment(slope=slope, span=x2 - x1, start=(x1, y1), end=(x2, y2), char_roots=roots, chi=chi)
        )
    return AdamsPolygon(
        points=points,
        segments=tuple(segments),
        normalization_degree=top_degree,
        normalization_index=next(i for i, y in points if y == 0) + base,
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
    |w|^(1/n) in exact conjugate pairs, exact in direction where a root lies
    on an axis.  Any other quadratic takes the closed form of
    ``_quadratic_roots``, and any other polynomial the companion-matrix
    eigenvalues of ``_numeric_roots``.  The two-term and companion branches
    share the rescale of ``_double_range``.
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
        # that is a whole number of quarter turns; past pi it is the exact
        # conjugate of root n - k - [w < 0]
        quarter, off = divmod(2 * (2 * k + (w < 0)), n)
        if 2 * k + (w < 0) > n:
            roots.append(roots[n - k - (w < 0)].conjugate())
        elif off:
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
    return [(seg.chi, seg.span) for seg in polygon.segments if seg.slope > 1]
