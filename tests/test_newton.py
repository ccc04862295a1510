import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import NEG_INF, analyze, normalize_to_delta, order_list, parse_equation, s_sequence, verdict

from fixtures_equations import (
    CUBIC_THIRD,
    HALF_ORDER,
    L3_TEXT,
    L5_TEXT,
    QUARTIC_34,
    random_equation,
)
from deltaorder import DifferenceEquation, Poly, compose_operators


def test_s_sequence_cubic_third():
    assert s_sequence([0, 0, 1, 2]) == (3, 0)


def test_s_sequence_quartic():
    assert s_sequence([2, 2, 1, 2, 3]) == (4, 0)


def test_s_sequence_ninth_order():
    assert s_sequence([3, 3, 4, 5, 6, 7, 7, 8, 9]) == (8, 5, 0)


def test_s_sequence_requires_nonzero_top():
    with pytest.raises(ValueError):
        s_sequence([1, NEG_INF])
    with pytest.raises(ValueError):
        s_sequence([NEG_INF, NEG_INF])


def _gift_wrapped_chain(degrees) -> tuple[int, ...]:
    """The chain by gift wrapping, the reference: from vertex s, the candidate
    k < s with d_k < d_s and d_k - k > d_s - s of least slope
    (s - k) / ((d_k - k) - (d_s - s)), ties to the smallest index."""
    d = list(degrees)
    top = max(x for x in d if x != NEG_INF)
    s = [min(k for k, x in enumerate(d) if x == top)]
    while True:
        cur = s[-1]
        base = d[cur] - cur
        candidates = [k for k in range(cur) if d[k] != NEG_INF and d[k] < d[cur] and d[k] - k > base]
        if not candidates:
            return tuple(s)
        s.append(min(candidates, key=lambda k: (Fraction(cur - k, (d[k] - k) - base), k)))


@st.composite
def _degree_vectors(draw):
    """Degrees 0..7 or absent, a finite top, and one run of indices whose
    points (-k, d_k - k) lie on one line."""
    n = draw(st.integers(2, 17))
    d = draw(st.lists(st.sampled_from([NEG_INF, *range(8)]), min_size=n, max_size=n))
    start, stride = draw(st.integers(0, n - 1)), draw(st.integers(1, 3))
    base, rise = draw(st.integers(0, 7)), draw(st.integers(0, 3))
    for j, k in enumerate(range(start, n, stride)):
        d[k] = base + rise * j
    if d[-1] == NEG_INF:
        d[-1] = draw(st.integers(0, 7))
    return d


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_degree_vectors())
def test_s_sequence_is_the_gift_wrapped_chain(degrees):
    assert s_sequence(degrees) == _gift_wrapped_chain(degrees)


def test_order_list_values():
    assert [
        (e.rho, e.max_count) for e in order_list([0, 0, 1, 2], (3, 0))
    ] == [(Fraction(1, 3), 1)]
    assert [
        (e.rho, e.max_count) for e in order_list([0, 0, 1], (2, 0))
    ] == [(Fraction(1, 2), 1)]
    assert [
        (e.rho, e.max_count) for e in order_list([3, 3, 4, 5, 6, 7, 7, 8, 9], (8, 5, 0))
    ] == [(Fraction(1, 3), 1), (Fraction(1, 5), 1)]


def test_analyze_half_order_example():
    analysis = analyze(normalize_to_delta(parse_equation(HALF_ORDER)))
    assert analysis.s_seq == (2, 0)
    assert [(e.rho, e.max_count) for e in analysis.orders] == [(Fraction(1, 2), 1)]


def test_analyze_quartic_bound():
    analysis = analyze(normalize_to_delta(parse_equation(QUARTIC_34)))
    assert analysis.s_seq == (4, 0)
    assert [(e.rho, e.max_count) for e in analysis.orders] == [(Fraction(3, 4), 3)]
    assert analysis.total_bound == 3


def test_analyze_composed_total_bound():
    composed = compose_operators(
        normalize_to_delta(parse_equation(L3_TEXT)),
        normalize_to_delta(parse_equation(L5_TEXT)),
    )
    analysis = analyze(composed)
    assert analysis.s_seq == (8, 5, 0)
    assert analysis.total_bound == (8 - 0) - (9 - 3)
    assert analysis.total_bound == 2


def test_negative_verdicts():
    gamma_like = analyze(normalize_to_delta(parse_equation("z D f(z) + (z - 1) f(z) = 0")))
    assert gamma_like.s_seq == (0,)
    assert gamma_like.p == 1
    assert not gamma_like.exists_sub1
    assert verdict(gamma_like)["exists_below_one"] is False

    geometric = analyze(normalize_to_delta(parse_equation("D f(z) - f(z) = 0")))
    assert geometric.p == 1
    assert not geometric.exists_sub1


def test_zero_coefficients_never_selected():
    # inner zero polynomials carry the degree sentinel and are skipped
    eq = DifferenceEquation([Poly([0, 1]), Poly(), Poly([1])])
    analysis = analyze(eq)
    assert 1 not in analysis.s_seq


def test_verdict_message_mentions_orders():
    analysis = analyze(normalize_to_delta(parse_equation(CUBIC_THIRD)))
    report = verdict(analysis)
    assert "1/3" in report["message"]
    assert report["total_bound"] == 1
    assert report["zero_order_possible"] is False


def test_invariants_on_random_equations():
    rng = random.Random(31)
    for _ in range(200):
        analysis = analyze(random_equation(rng))
        rhos = [e.rho for e in analysis.orders]
        assert all(0 < r < 1 for r in rhos)
        assert all(a > b for a, b in zip(rhos, rhos[1:]))
        assert all(e.max_count >= 1 for e in analysis.orders)
        assert sum(e.max_count for e in analysis.orders) == analysis.total_bound
        d, s = analysis.degrees, analysis.s_seq
        assert all(d[a] > d[b] for a, b in zip(s, s[1:]))
        assert all(d[b] - b > d[a] - a for a, b in zip(s, s[1:]))
        if analysis.p >= 2:
            assert analysis.total_bound < len(analysis.degrees) - 1
