import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltaorder import (
    CoefficientRecurrence,
    DifferenceEquation,
    Poly,
    adams_polygon,
    analyze,
    derive_recurrence,
    indicial_exponents,
    normalize_to_delta,
    parse_equation,
    shifted_recurrence,
    sub_one_branches,
)
from deltaorder.cli import main
from deltaorder.errors import RootRangeError
from deltaorder.recurrences import (
    MAX_DIVISOR_SEARCH,
    _as_doubles,
    _characteristic_roots,
    _check_degree_chain,
    _divisors,
    _numeric_roots,
    _quadratic_roots,
    _rational_roots,
)

from fixtures_equations import (
    CUBIC_THIRD,
    QUARTIC_34,
    binomial,
    deadline,
    falling_factorial_poly,
    prod_poly,
    random_equation,
    to_falling_basis,
    window_sums,
)


@pytest.fixture(scope="module")
def cubic_eq():
    return normalize_to_delta(parse_equation(CUBIC_THIRD))


@pytest.fixture(scope="module")
def quartic_eq():
    return normalize_to_delta(parse_equation(QUARTIC_34))


def test_quartic_window_matches_displays(quartic_eq):
    rec = derive_recurrence(quartic_eq)
    expected = {
        -4: prod_poly([1, 1], [2, 1], [3, 1], [4, 1], [5, 2], [7, 4], [13, 4]) * 8,
        -3: prod_poly([1, 1], [2, 1], [3, 1], [3, 2], [3, 4], [9, 4]) * 24,
        -2: prod_poly([1, 1], [2, 1], [1, 2], [-1, 4], [5, 4]) * 24,
        -1: prod_poly([1, 1], [-446, -357, -465, 256]),
        0: prod_poly([1, 1], [2, 1]) * -243,
        1: Poly([1, 1]) * -243,
        2: Poly([-81]),
    }
    for i, poly in expected.items():
        assert rec.window[i] == poly
    assert rec.window[3].is_zero


def test_cubic_window_vanishes_beyond_constant_entry(cubic_eq):
    rec = derive_recurrence(cubic_eq)
    assert rec.window[0] == Poly([-1])
    assert rec.window[1].is_zero
    assert rec.window[2].is_zero


def test_first_order_window_by_hand():
    eq = normalize_to_delta(parse_equation("D f(z) - f(z) = 0"))
    rec = derive_recurrence(eq)
    assert rec.window == {-1: Poly([1, 1]), 0: Poly([-1])}


def test_shifted_window_matches_offset_displays(cubic_eq):
    # with offset r the windows are built from shifted falling powers:
    #   back-shift 1: 6 ff(n+1+r, 3) + ff(n+1+r, 2) - ff(n+1+r, 1)
    #   back-shift 2: 12 ff(n+2+r, 4) + 26 ff(n+2+r, 3) + 3 ff(n+2+r, 2)
    #   back-shift 3: 6 ff(n+3+r, 5) + 25 ff(n+3+r, 4) + 15 ff(n+3+r, 3)
    for rho in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)):
        rec = shifted_recurrence(cubic_eq, rho)

        def ff(shift, length):
            return falling_factorial_poly(length, offset=rho + shift)

        assert rec.window[-1] == ff(1, 3) * 6 + ff(1, 2) - ff(1, 1)
        assert rec.window[-2] == ff(2, 4) * 12 + ff(2, 3) * 26 + ff(2, 2) * 3
        assert rec.window[-3] == ff(3, 5) * 6 + ff(3, 4) * 25 + ff(3, 3) * 15
        assert rec.window[0] == Poly([-1])


def test_shifted_reduces_to_plain(cubic_eq, quartic_eq):
    for eq in (cubic_eq, quartic_eq):
        assert shifted_recurrence(eq, 0).window == derive_recurrence(eq).window


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(3, 2), Fraction(7, 3)]),
    st.integers(1, 4),
)
def test_rows_and_polygon_data_from_the_sums_match_the_monomial_window(rng, rho, modulus):
    # the integer offsets 1 and 2 start Horner's rule below the entries'
    # degrees; a modulus keeps the entries on its multiples
    rec = shifted_recurrence(random_equation(rng), rho)
    rows = dict(rec.rows(rec.span + 12))
    on_support = dict(rec.rows(rec.span + 12, modulus))
    assert list(rows) == list(on_support) == list(range(rec.first_row, rec.span + 13))
    for n in range(rec.first_row, rec.span + 13):
        expected = []
        for i, q in rec.window.items():
            value = Fraction(0)
            for c in reversed(q.coeffs):
                value = value * n + c
            if n - i >= 0 and value:
                expected.append((n - i, value * rec.scale))
        assert rows[n] == tuple(expected)
        assert on_support[n] == tuple([(idx, value) for idx, value in expected if idx % modulus == 0])
    for i, q in rec.window.items():
        sums = rec.sums[i]
        if sums:
            assert (len(sums) - 1, sums[-1]) == (q.degree, q.leading_coefficient)
        else:
            assert q.is_zero


def test_only_the_printout_builds_the_monomial_window(cubic_eq, monkeypatch):
    from deltaorder import construct_equation, construction, roundtrip_check, solve_series, verify_recurrence

    recs = []
    for rho in (Fraction(0), Fraction(3, 2)):
        rec = shifted_recurrence(cubic_eq, rho)
        adams_polygon(rec)
        sol = solve_series(rec, 40)[0]
        verify_recurrence(rec, sol, 40 - rec.order)
        recs.append(rec)
    recs.append(derive_recurrence(cubic_eq))

    def recorded(eq):
        recs.append(derive_recurrence(eq))
        return recs[-1]

    monkeypatch.setattr(construction, "derive_recurrence", recorded)
    assert roundtrip_check(construct_equation(1, 2)).ok
    assert len(recs) == 4
    assert all("window" not in rec.__dict__ for rec in recs)
    assert recs[0].window and "window" in recs[0].__dict__


@pytest.mark.parametrize("rho", [Fraction(0), Fraction(3, 2)])
def test_kept_rows_read_as_freshly_made_rows(cubic_eq, rho):
    rec, fresh = shifted_recurrence(cubic_eq, rho), shifted_recurrence(cubic_eq, rho)

    def made(last, modulus=1):
        return list(fresh.rows(last, modulus))

    assert list(rec.rows(30, keep=True)) == made(30)
    # after a longer call, a shorter one reads the kept rows only
    assert list(rec.rows(20)) == made(20)
    # after a shorter call, a longer one reads them and makes the rest
    assert list(rec.rows(45)) == made(45)
    assert len(rec._kept[1]) == 31 - rec.first_row
    assert list(rec.rows(45, keep=True)) == made(45)
    assert len(rec._kept[1]) == 46 - rec.first_row
    # rows of another modulus are kept, and read, apart
    assert list(rec.rows(40, 2)) == made(40, 2)
    assert 2 not in rec._kept
    assert list(rec.rows(25, 2, keep=True)) == made(25, 2)
    assert list(rec.rows(40, 2)) == made(40, 2)
    assert list(rec.rows(45)) == made(45)
    assert rec == fresh and repr(rec) == repr(fresh)


def test_a_caller_cannot_alter_kept_rows(cubic_eq):
    rec = derive_recurrence(cubic_eq)
    got = list(rec.rows(12, keep=True))
    n, row = got[5]
    with pytest.raises(TypeError):
        row[0] = (0, 1)
    with pytest.raises(AttributeError):
        row.append((0, 1))
    got.clear()
    assert list(rec.rows(12)) == list(derive_recurrence(cubic_eq).rows(12))


def test_rows_past_the_budget_are_not_kept(cubic_eq, monkeypatch):
    from deltaorder import recurrences

    rec = derive_recurrence(cubic_eq)
    # 41 rows, each counted as the last
    _, top = list(rec.rows(40))[-1]
    need = 41 * sum(value.bit_length() + 1024 for _, value in top)
    monkeypatch.setattr(recurrences, "KEPT_ROW_BITS", need - 1)
    assert list(rec.rows(40, keep=True)) == list(derive_recurrence(cubic_eq).rows(40))
    assert rec._kept == {}
    monkeypatch.setattr(recurrences, "KEPT_ROW_BITS", need)
    assert list(rec.rows(40, keep=True)) == list(derive_recurrence(cubic_eq).rows(40))
    assert len(rec._kept[1]) == 41
    # rows kept stay kept when a longer window does not fit
    assert list(rec.rows(80, keep=True)) == list(derive_recurrence(cubic_eq).rows(80))
    assert len(rec._kept[1]) == 41


def test_only_the_solver_keeps_rows(cubic_eq):
    from deltaorder import solve_series, verify_recurrence

    rec = derive_recurrence(cubic_eq)
    sol = solve_series(rec, 60)[0]
    other = derive_recurrence(cubic_eq)
    verify_recurrence(other, sol, 60 - other.order)
    assert other._kept == {}
    assert len(rec._kept[1]) == 60 - rec.order + 1
    assert verify_recurrence(rec, sol, 60 - rec.order) == verify_recurrence(other, sol, 60 - other.order)


def test_a_trailing_zero_sum_is_rejected():
    with pytest.raises(ValueError, match="zero sum"):
        CoefficientRecurrence({-1: (1, 1), 0: (-1, 0)})


def test_shifted_rejects_negative_integer_offset(cubic_eq):
    with pytest.raises(ValueError):
        shifted_recurrence(cubic_eq, -2)


def test_initial_rows_cover_small_indices(cubic_eq):
    rec = derive_recurrence(cubic_eq)
    # the first row, in stream-index/value pairs
    row0 = dict(dict(rec.rows(0))[0])
    assert row0 == {3: Fraction(90), 2: Fraction(6), 1: Fraction(-1), 0: Fraction(-1)}


def test_indicial_exponents_cubic(cubic_eq):
    roots = indicial_exponents(cubic_eq)
    assert roots == [
        Fraction(0),
        Fraction(1),
        Fraction(4, 3),
        Fraction(3, 2),
        Fraction(2),
    ]


def test_indicial_exponents_first_order():
    eq = normalize_to_delta(parse_equation("D f(z) - f(z) = 0"))
    assert indicial_exponents(eq) == [Fraction(0)]


def test_indicial_contains_zero_when_constant_solutions_exist():
    eq = normalize_to_delta(parse_equation("D^2 f(z) + D f(z) = 0"))
    assert Fraction(0) in indicial_exponents(eq)


def test_adams_polygon_quartic(quartic_eq):
    polygon = adams_polygon(derive_recurrence(quartic_eq))
    assert polygon.points == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (6, 7))
    slopes = [(s.slope, s.span, s.start, s.end) for s in polygon.segments]
    assert slopes == [
        (Fraction(1), 3, (0, 0), (3, 3)),
        (Fraction(4, 3), 3, (3, 3), (6, 7)),
    ]
    steep = polygon.segments[1]
    assert steep.chi == Fraction(3, 4)
    # characteristic roots: the three cube roots of 81/256
    magnitude = (81 / 256) ** (1 / 3)
    assert len(steep.char_roots) == 3
    for root in steep.char_roots:
        assert abs(abs(root) - magnitude) < 1e-9
    assert any(abs(root - magnitude) < 1e-9 for root in steep.char_roots)


def test_adams_polygon_cubic(cubic_eq):
    polygon = adams_polygon(derive_recurrence(cubic_eq))
    assert polygon.points == ((0, 0), (1, 1), (2, 2), (3, 5))
    assert [(s.slope, s.span) for s in polygon.segments] == [
        (Fraction(1), 2),
        (Fraction(3), 1),
    ]
    assert sub_one_branches(polygon) == [(Fraction(1, 3), 1)]


def test_adams_polygon_flat_window_is_poincare_case():
    rec = CoefficientRecurrence(window_sums({0: Poly([2]), 1: Poly([-1]), 2: Poly([3])}))
    polygon = adams_polygon(rec)
    assert [(s.slope, s.span) for s in polygon.segments] == [(Fraction(0), 2)]
    assert polygon.segments[0].chi is None
    assert sub_one_branches(polygon) == []


def test_adams_polygon_two_term_roots_exact_when_span_one():
    rec = CoefficientRecurrence(window_sums({0: Poly([0, 3]), 1: Poly([5])}))
    polygon = adams_polygon(rec)
    seg = polygon.segments[0]
    assert seg.span == 1
    assert seg.char_roots == (Fraction(-5, 3),)


def test_two_term_segment_roots_are_span_th_roots():
    rng = random.Random(41)
    for _ in range(100):
        eq = random_equation(rng)
        polygon = adams_polygon(derive_recurrence(eq))
        analysis = analyze(eq)
        for seg, entry in zip(
            [s for s in polygon.segments if s.slope > 1], analysis.orders
        ):
            assert len(seg.char_roots) == seg.span == entry.max_count
            mags = sorted(abs(complex(r)) for r in seg.char_roots)
            assert mags[-1] - mags[0] < 1e-9
            assert len({round(complex(r).real, 9) + 1j * round(complex(r).imag, 9)
                        for r in seg.char_roots}) == seg.span


def test_newton_adams_consistency_random():
    rng = random.Random(42)
    for _ in range(120):
        eq = random_equation(rng)
        analysis = analyze(eq)
        polygon = adams_polygon(derive_recurrence(eq))
        assert sub_one_branches(polygon) == [
            (e.rho, e.max_count) for e in analysis.orders
        ]


def test_window_degree_chain_random():
    # the derivation itself asserts the degree chain; exercise it broadly
    rng = random.Random(43)
    for _ in range(150):
        derive_recurrence(random_equation(rng))


def test_degree_chain_violation_raises(cubic_eq):
    rec = derive_recurrence(cubic_eq)
    window = dict(rec.window)
    window[rec.max_index] = Poly([1])  # beyond the last vertex: must vanish
    with pytest.raises(ArithmeticError):
        _check_degree_chain(cubic_eq, CoefficientRecurrence(window_sums(window)))


# --- properties against the per-term expansion ---------------------------------

_coeffs = st.lists(st.integers(-9, 9), max_size=6)
_nonzero = st.integers(-9, 9).filter(bool)


@st.composite
def _equations(draw, max_order=5):
    order = draw(st.integers(1, max_order))
    coeffs = [draw(_coeffs) for _ in range(order)]
    coeffs.append(draw(_coeffs) + [draw(_nonzero)])
    return DifferenceEquation([Poly(c) for c in coeffs])


_offsets = st.fractions(-3, 5, max_denominator=6).filter(
    lambda r: r.denominator != 1 or r >= 0
)


def _per_term_window_entry(eq, i, rho):
    """Q_i(n) = sum_{j,t} A_{j,t} C(t, i+j) ff(n - i + rho, t - i), term by term."""
    out = Poly()
    for j, p in enumerate(eq.coeffs):
        for t, a in enumerate(to_falling_basis(p)):
            c = binomial(t, i + j)
            if a != 0 and c != 0:
                out = out + falling_factorial_poly(t - i, offset=rho - i) * (a * c)
    return out


@settings(max_examples=60, deadline=None)
@given(_equations(), _offsets)
def test_window_entries_match_per_term_sum(eq, rho):
    rec = shifted_recurrence(eq, rho)
    expected = {
        i: _per_term_window_entry(eq, i, rho)
        for i in range(-eq.order, eq.max_degree + 1)
    }
    assert rec.window == expected


def _fraction_rational_roots(poly: Poly):
    """Divisor search with Fraction Horner and Fraction deflation."""

    def value(ints, x):
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    roots = []
    ints = list(poly.nums)
    while ints and ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    while len(ints) > 1:
        candidates = (
            Fraction(sign * num, den)
            for num in _divisors(abs(ints[0]))
            for den in _divisors(abs(ints[-1]))
            for sign in (1, -1)
        )
        root = next((x for x in candidates if value(ints, x) == 0), None)
        if root is None:
            break
        roots.append(root)
        out, carry = [], Fraction(0)
        for c in reversed(ints[1:]):
            carry = carry * root + c
            out.insert(0, carry)
        den = math.lcm(*[c.denominator for c in out])
        ints = [c.numerator * (den // c.denominator) for c in out]
    return roots, Poly(ints)


_linear_factors = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(factors=_linear_factors, rest=_coeffs, zeros=st.integers(0, 2))
def test_rational_roots_match_the_fraction_search(factors, rest, zeros):
    poly = prod_poly([0] * zeros + [1], *[[-a, b] for a, b in factors], rest or [1])
    if poly.is_zero:
        return
    roots, residual = _rational_roots(poly)
    expected_roots, expected_residual = _fraction_rational_roots(poly)
    # equal integer residuals give np.roots the same array
    assert roots == expected_roots
    assert (residual.den, residual.nums) == (expected_residual.den, expected_residual.nums)


@settings(max_examples=60, deadline=None)
@given(_equations())
def test_indicial_exponents_are_the_roots_of_the_factored_polynomial(eq):
    m, top = eq.order, eq.coeffs[-1]
    poly = falling_factorial_poly(m) * top.shifted(-m)
    roots = indicial_exponents(eq)
    assert len(roots) == m + top.degree
    rest = list(reversed(poly.coeffs))  # descending
    for r in (r for r in roots if isinstance(r, Fraction)):
        # synthetic division by (x - r): an exact root leaves no remainder,
        # and deflating once per listing checks the multiplicity
        for k in range(1, len(rest)):
            rest[k] += rest[k - 1] * r
        assert rest.pop() == 0
    numeric = [r for r in roots if not isinstance(r, Fraction)]
    assert len(numeric) == len(rest) - 1
    for r in numeric:
        value = sum(float(c) * r ** k for k, c in enumerate(reversed(rest)))
        scale = sum(abs(float(c)) * abs(r) ** k for k, c in enumerate(reversed(rest)))
        assert abs(value) <= 1e-8 * scale


def test_high_order_analysis_finishes_in_time():
    # the indicial polynomial's constant once carried 59!, whose divisor
    # search did not finish within a minute
    eq = normalize_to_delta(parse_equation("D^60 f(z) + z^40 f(z) = 0"))
    with deadline(5):
        polygon = adams_polygon(derive_recurrence(eq))
        exponents = indicial_exponents(eq)
    assert sub_one_branches(polygon) == []
    assert exponents == [Fraction(k) for k in range(60)]


def test_high_degree_window_finishes_in_time():
    # window entries once took 8 s here through Fraction Taylor shifts and
    # Stirling conversions; the integer Newton-form kernel takes well under 1 s
    eq = normalize_to_delta(parse_equation("z^150 D f(z) + f(z) = 0"))
    with deadline(5):
        rec = derive_recurrence(eq)
    assert rec.window[150].is_zero
    for i in range(-1, 150):
        entry = rec.window[i]
        assert entry.degree == 150 - i
        assert entry.leading_coefficient == math.comb(150, i + 1)


def test_huge_leading_coefficient_analysis_finishes_in_time(capsys):
    # the leading coefficient is about 1e18; its divisors were once listed by
    # trial division, again for every divisor of the constant
    lead = 1000000007 * 998244353
    with deadline(5):
        code = main(["analyze", "(1000000007*998244353z + 3) D^2 f(z) + z f(z) = 0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["indicial_exponents"] == ["0", "1", f"{2 * lead - 3}/{lead}"]


def test_huge_leading_coefficient_quadratic_analysis_finishes_in_time(capsys):
    # the divisors of the same lead were once listed for a quadratic P_m, which
    # ran past 15 s; its discriminant -12 lead shows at once that no root is rational
    lead = 1000000007 * 998244353
    with deadline(5):
        code = main(["analyze", "(1000000007*998244353z^2 + 3) D^2 f(z) + z f(z) = 0"])
    assert code == 0
    exponents = json.loads(capsys.readouterr().out)["indicial_exponents"]
    assert exponents[:2] == ["0", "1"]
    roots = [complex(*r) for r in exponents[2:]]
    im = math.sqrt(3 / lead)
    assert [r.real for r in roots] == [2.0, 2.0]
    assert [r.imag for r in roots] == pytest.approx([-im, im], rel=1e-12)


def test_cubic_with_a_huge_prime_power_lead_is_rejected_within_the_deadline(capsys):
    # trial division up to sqrt(1000003^40) ran past a 10 s timeout
    with deadline(5):
        code = main(["analyze", "(1000003^40 z^3 + 1) D f(z) + f(z) = 0"])
    assert code == 6
    err = capsys.readouterr().err
    assert f"exceeds the limit of {MAX_DIVISOR_SEARCH} steps" in err


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101]
_LARGE_PRIMES = [65537, 1000003, 998244353, 1000000007, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1]
_prime_products = (
    st.tuples(
        st.lists(st.sampled_from(_SMALL_PRIMES), max_size=6), st.lists(st.sampled_from(_LARGE_PRIMES), max_size=3)
    )
    .map(lambda parts: math.prod(parts[0] + parts[1]))
    .filter(lambda n: n < 2**256)
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    lead=_prime_products,
    constant=_prime_products,
    middle=st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    negative=st.booleans(),
)
def test_divisor_search_returns_or_is_rejected_in_time(lead, constant, middle, negative):
    top = Poly([-constant if negative else constant, *middle, lead])
    eq = DifferenceEquation([Poly([1]), top])
    with deadline(5):
        try:
            indicial_exponents(eq)
        except RootRangeError as exc:
            assert "divisor search" in str(exc)


_binomial_coefficients = st.integers(-(2**24), 2**24).filter(bool) | st.integers(-30, 30).filter(bool)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _binomial_coefficients,
    _binomial_coefficients,
    st.integers(2, 9),
    st.integers(1, 3),
    st.sampled_from([1, 3**800, 3**1500, Fraction(1, 3**1500)]),
)
def test_binomial_indicial_residual_has_the_characteristic_roots(a, b, n, m, wide):
    # a wide quadratic's roots need the rescale or lie past the double range;
    # the divisor search rejects a wide polynomial of higher degree
    assume(n == 2 or wide == 1)
    eq = DifferenceEquation([Poly([1])] * m + [Poly([b * wide] + [0] * (n - 1) + [a])])
    top = eq.coeffs[-1]
    assume(not _rational_roots(top)[0])
    try:
        # the segment polynomial a g^n + b, the left point's coefficient at g^n
        roots = _characteristic_roots([(0, 0), (n, 0)], n, {0: top.nums[-1], n: top.nums[0]})
    except RootRangeError:
        with pytest.raises(RootRangeError):
            indicial_exponents(eq)
        return
    expected = sorted((r + m for r in roots), key=lambda r: (round(r.real, 10), round(r.imag, 10)))
    assert indicial_exponents(eq) == [Fraction(k) for k in range(m)] + expected


# --- characteristic roots past the double range -------------------------------


def _segments(text):
    return adams_polygon(derive_recurrence(normalize_to_delta(parse_equation(text)))).segments


def _numpy_two_term_roots(w: Fraction, span: int) -> list[complex]:
    """The two-term roots as numpy's cos, sin and angle gave them, with cos and
    sin rounded to -1, 0 or 1 at whole quarter turns, and a root past angle pi
    the conjugate of its mirror: the reference."""
    mag = abs(w) ** (1.0 / span)
    phase = 0.0 if w > 0 else math.pi
    roots = []
    for k in range(span):
        if 2 * k + (w < 0) > span:
            roots.append(roots[span - k - (w < 0)].conjugate())
            continue
        angle = (phase + 2 * math.pi * k) / span
        cos, sin = np.cos(angle), np.sin(angle)
        if Fraction(2 * (2 * k + (w < 0)), span).denominator == 1:
            cos, sin = int(round(cos)), int(round(sin))
        roots.append(complex(mag * cos, mag * sin))
    return sorted(roots, key=lambda r: (round(abs(r), 10), round(np.angle(r), 10)))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**12), 10**12).filter(bool),
    st.integers(1, 10**12),
    st.integers(2, 24),
)
def test_two_term_roots_match_the_numpy_reference(num, den, span):
    w = Fraction(num, den)
    roots = _characteristic_roots([(0, 0), (span, 0)], span, {0: Fraction(1), span: -w})
    assert roots == _numpy_two_term_roots(w, span)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(-(10**12), 10**12).filter(bool),
    st.integers(1, 10**12),
    st.integers(2, 24),
)
def test_two_term_roots_come_in_exact_conjugate_pairs(num, den, span):
    w = Fraction(num, den)
    roots = _characteristic_roots([(0, 0), (span, 0)], span, {0: Fraction(1), span: -w})
    assert sorted(roots, key=lambda r: (r.real, r.imag)) == sorted(
        [r.conjugate() for r in roots], key=lambda r: (r.real, r.imag)
    )


def test_two_term_roots_on_the_axes_are_exact():
    # D^2 f + 4 f = 0: the roots +-2i came out as (-3.67e-16, -2.0) and (1.22e-16, 2.0)
    eq = normalize_to_delta(parse_equation("f(z+2) - 2 f(z+1) + 5 f(z) = 0"))
    roots = [seg.char_roots for seg in adams_polygon(derive_recurrence(eq)).segments]
    assert roots == [(complex(0.0, -2.0), complex(0.0, 2.0))]
    assert all(math.copysign(1, r.real) == 1 for r in roots[0])
    # a root on the negative real axis is exactly real and sorts at angle +pi
    cube = _characteristic_roots([(0, 0), (3, 0)], 3, {0: Fraction(1), 3: Fraction(8)})
    assert cube[2] == complex(-2.0, 0.0)
    assert [round(math.atan2(r.imag, r.real), 3) for r in cube] == [-1.047, 1.047, 3.142]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**15), 10**15), min_size=2, max_size=9).filter(lambda c: c[0] and c[-1]))
def test_numeric_roots_of_double_sized_coefficients_are_np_roots(coeffs):
    expected = [complex(r) for r in np.roots([float(c) for c in coeffs])]
    assert _numeric_roots([Fraction(c) for c in coeffs]) == expected


# rationals from small to past the double range, and factors to scale a polynomial by
_rationals = st.builds(
    Fraction,
    st.integers(-(10**400), 10**400).filter(bool) | st.integers(-50, 50).filter(bool),
    st.integers(1, 10**400) | st.integers(1, 50),
)
_scales = st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(3**700), Fraction(1, 7**400)])


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _scales, st.booleans())
def test_rational_quadratic_roots_are_exact(r, s, scale, double):
    sympy = pytest.importorskip("sympy")
    if double:
        s = r
    c, b, a = (scale * k for k in prod_poly([-r.numerator, r.denominator], [-s.numerator, s.denominator]).coeffs)
    parts, exact = _quadratic_roots(a, b, c)
    assert exact
    assert all(im == 0 for _, im in parts)
    # sympy's closed form: sympy.roots factors the coefficients' gcd, which does not finish at these sizes
    expected = sympy.polys.polyroots.roots_quadratic(sympy.Poly([a, b, c], sympy.Symbol("x"), domain="QQ"))
    assert sorted(re for re, _ in parts) == sorted(Fraction(int(k.p), int(k.q)) for k in expected)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**6), 10**6).filter(bool),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).filter(bool),
    _scales,
)
def test_separated_quadratic_roots_agree_with_np_roots(a, b, c, scale):
    expected = sorted((complex(r) for r in np.roots([a, b, c])), key=lambda r: (r.real, r.imag))
    big, small = max(map(abs, expected)), min(map(abs, expected))
    # np.roots loses digits on close or far-apart roots: no reference there
    assume(abs(expected[0] - expected[1]) >= 1e-3 * big and big <= 1e6 * small)
    parts, _ = _quadratic_roots(scale * a, scale * b, scale * c)
    found = sorted(_as_doubles(parts), key=lambda r: (r.real, r.imag))
    for root, ref in zip(found, expected):
        assert abs(root - ref) <= 1e-9 * abs(ref)


def test_quadratic_roots_keep_the_small_root_of_a_far_apart_pair():
    # x^2 - 2e30 x + 3: the textbook (2e30 - sqrt(4e60 - 12))/2 cancels every digit
    small, large = sorted(_as_doubles(_quadratic_roots(1, -2 * 10**30, 3)[0]), key=abs)
    assert (small, large) == (1.5e-30, 2e30)


@settings(max_examples=100, deadline=None)
@given(st.integers(1100, 5000), st.integers(1, 10**6), st.booleans(), st.booleans())
def test_quadratic_roots_outside_the_double_range_raise(bits, other, tiny, negative):
    # (x - R)(x - other) with R = +-2^bits, or its reciprocal polynomial for R = 2^-bits
    root = -(2**bits) if negative else 2**bits
    c, b, a = prod_poly([-root, 1], [-other, 1]).coeffs
    if tiny:
        a, c = c, a
    on_line = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(RootRangeError, match="a root is outside the double range"):
        _characteristic_roots(on_line, 2, {0: a, 1: b, 2: c})


def test_numeric_roots_past_the_double_range():
    # (g - 3^600)(g - 5^400): the coefficients pass 2^1024, the roots do not
    a, b = 3**600, 5**400
    small, large = sorted(_numeric_roots([1, -(a + b), a * b]), key=abs)
    assert small.imag == large.imag == 0
    assert abs(small.real / float(b) - 1) < 1e-12 and abs(large.real / float(a) - 1) < 1e-12
    # g^3 + 3^1400: cube roots of -3^1400, magnitude 3^(1400/3)
    cube = _numeric_roots([Fraction(1), 0, 0, Fraction(3**1400)])
    assert all(abs(abs(r) / 3 ** (1400 / 3) - 1) < 1e-12 for r in cube)
    with pytest.raises(RootRangeError, match="outside the double range"):
        _numeric_roots([1, -(2**1500 + 3), 3 * 2**1500])  # a root at 2^1500
    with pytest.raises(RootRangeError, match="too far apart"):
        _numeric_roots([1, 3**3000, 1])


def test_huge_coefficient_ratios_keep_the_unscaled_roots():
    # the polygon of a constant multiple of P_m has the same characteristic roots
    for power in (2, 3):
        plain = _segments(f"z^{power} D f(z) + f(z) = 0")
        scaled = _segments(f"3^700 z^{power} D f(z) + f(z) = 0")
        assert [s.span for s in scaled] == [s.span for s in plain]
        for seg, ref in zip(scaled, plain):
            assert all(abs(r - q) < 1e-12 for r, q in zip(seg.char_roots, ref.char_roots))


def test_two_term_roots_in_the_log_domain():
    # |w| = 3^800 and 3^-800 do not fit a double; the square roots 3^(+-400) do
    for text, magnitude in (
        ("f(z+2) + 3^800 z^2 f(z) = 0", 3.0**400),
        ("3^800 f(z+2) + z^2 f(z) = 0", 3.0**-400),
    ):
        flat = next(seg for seg in _segments(text) if seg.slope == 0)
        assert len(flat.char_roots) == 2
        assert all(abs(abs(r) / magnitude - 1) < 1e-12 for r in flat.char_roots)
    with pytest.raises(RootRangeError, match="10\\^357.8 is outside the double range"):
        _segments("f(z+2) + 3^1500 z^2 f(z) = 0")
    with pytest.raises(RootRangeError, match="10\\^-357.8 is outside the double range"):
        _segments("3^1500 f(z+2) + z^2 f(z) = 0")
