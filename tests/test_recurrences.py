import json
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    CoefficientRecurrence,
    DifferenceEquation,
    NEG_INF,
    Poly,
    adams_polygon,
    analyze,
    degree_profile,
    derive_recurrence,
    indicial_exponents,
    normalize_to_delta,
    parse_equation,
    shifted_recurrence,
    sub_one_branches,
)
from deltaorder.cli import main
from deltaorder.polynomials import binomial, falling_factorial_poly, to_falling_basis
from deltaorder.recurrences import _check_degree_chain

from fixtures_equations import (
    CUBIC_THIRD,
    QUARTIC_34,
    prod_poly,
    random_equation,
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


def test_shifted_rejects_negative_integer_offset(cubic_eq):
    with pytest.raises(ValueError):
        shifted_recurrence(cubic_eq, -2)


def test_initial_rows_cover_small_indices(cubic_eq):
    rec = derive_recurrence(cubic_eq)
    # the first row, in stream-index/value pairs
    row0 = dict(rec.row(0))
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
    rec = CoefficientRecurrence(window={0: Poly([2]), 1: Poly([-1]), 2: Poly([3])})
    polygon = adams_polygon(rec)
    assert [(s.slope, s.span) for s in polygon.segments] == [(Fraction(0), 2)]
    assert polygon.segments[0].chi is None
    assert sub_one_branches(polygon) == []


def test_adams_polygon_two_term_roots_exact_when_span_one():
    rec = CoefficientRecurrence(window={0: Poly([0, 3]), 1: Poly([5])})
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


def test_degree_profile_ties_at_predicted_indices(quartic_eq, cubic_eq):
    rec4 = derive_recurrence(quartic_eq)
    profile = degree_profile(rec4, Fraction(4, 3))
    finite = [x for x in profile if x != NEG_INF]
    top = max(finite)
    assert [i for i, x in enumerate(profile) if x == top] == [3, 6]

    rec3 = derive_recurrence(cubic_eq)
    profile3 = degree_profile(rec3, Fraction(3))
    top3 = max(x for x in profile3 if x != NEG_INF)
    assert [i for i, x in enumerate(profile3) if x == top3] == [2, 3]


def test_degree_profile_large_exponent_peaks_at_leading_entry(quartic_eq):
    rec = derive_recurrence(quartic_eq)
    profile = degree_profile(rec, Fraction(100))
    finite = [x for x in profile if x != NEG_INF]
    assert profile[0] != max(finite)
    assert profile.index(max(finite)) == len([x for x in profile if x != NEG_INF]) - 1


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
        _check_degree_chain(cubic_eq, CoefficientRecurrence(window=window))


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


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_high_order_analysis_finishes_in_time():
    # the indicial polynomial's constant once carried 59!, whose divisor
    # search did not finish within a minute
    eq = normalize_to_delta(parse_equation("D^60 f(z) + z^40 f(z) = 0"))
    with _deadline(5):
        polygon = adams_polygon(derive_recurrence(eq))
        exponents = indicial_exponents(eq)
    assert sub_one_branches(polygon) == []
    assert exponents == [Fraction(k) for k in range(60)]


def test_high_degree_window_finishes_in_time():
    # window entries once took 8 s here through Fraction Taylor shifts and
    # Stirling conversions; the integer Newton-form kernel takes well under 1 s
    eq = normalize_to_delta(parse_equation("z^150 D f(z) + f(z) = 0"))
    with _deadline(5):
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
    with _deadline(5):
        code = main(["analyze", "(1000000007*998244353z + 3) D^2 f(z) + z f(z) = 0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["indicial_exponents"] == ["0", "1", f"{2 * lead - 3}/{lead}"]
