"""The integer-mantissa arithmetic of the evaluation kernel against mpmath.libmp.

The kernel's hot path (the terms, the running total and the falling-power
weights) runs on (mantissa, exponent) pairs of Python ints.  Its two
primitives must give the value that the libmp operation they stand for gives
at round_nearest, whatever trailing zeros their operands carry: ``_round``
and the products against ``mpf_mul``, and ``_add`` against ``mpf_add`` and
``mpf_sub`` (far-apart operands and products of 2·prec bits included).
Results are compared as normalized raw mpf tuples.  The stopping rule's
exact side calls libmp itself, which pays only while it runs a few times per
sum rather than once per term; a test counts those calls.  The whole kernel
is checked against the mpc loop it stands for, in test_evaluation too.
"""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_man_exp,
    mpf_add,
    mpf_mul,
    mpf_sub,
    round_nearest,
)

from deltaorder import SeriesSolution, empirical_order, eval_series, evaluation, max_modulus
from deltaorder.evaluation import (
    _add,
    _circle_point,
    _round,
)

from fixtures_equations import third_order_stream
from test_evaluation import _fields, _outcome, oracle_eval, oracle_max_modulus, precision, streams

RND = round_nearest

precisions = st.one_of(st.sampled_from((53, 64, 113, 128, 200, 256)), st.integers(53, 1000))


@st.composite
def mantissas(draw, prec):
    """Signed mantissas: small, about prec bits, 260 bits and more, and exact ties."""
    kind = draw(st.sampled_from(("small", "prec", "wide", "tie")))
    if kind == "small":
        m = draw(st.integers(1, 1000))
    elif kind == "prec":
        m = draw(st.integers(1, 2 ** (prec + 2)))
    elif kind == "wide":
        m = draw(st.integers(2**259, 2 ** draw(st.integers(260, 2 * prec + 300))))
    else:
        # prec kept bits, then a round bit and nothing below it: halfway between neighbours
        kept = draw(st.integers(2 ** (prec - 1), 2**prec - 1))
        m = ((2 * kept + 1) << draw(st.integers(0, 40)))
    return m if draw(st.booleans()) else -m


@st.composite
def operand_pairs(draw):
    """Two nonzero operands whose exponents lie 0, a few, over 100 or over prec + 4 bits apart."""
    prec = draw(precisions)
    xm = draw(mantissas(prec))
    ym = draw(mantissas(prec))
    xe = draw(st.integers(-1200, 1200))
    gap = draw(
        st.one_of(
            st.sampled_from((0, 1, -1, 99, 100, 101, -101)),
            st.integers(-prec - 10, prec + 10),
            st.sampled_from((prec + 4, prec + 5, prec + 105, -prec - 105, 5000, -5000)),
            st.integers(-3000, 3000),
        )
    )
    return prec, xm, xe, ym, xe - gap


@st.composite
def padded(draw, m, e):
    """The same value with up to 70 trailing zero bits in its mantissa."""
    t = draw(st.integers(0, 70))
    return m << t, e - t


def mpf(m, e):
    return from_man_exp(m, e)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=operand_pairs())
def test_add_and_sub_match_mpf_add_and_mpf_sub(data, case):
    prec, xm, xe, ym, ye = case
    want_add = mpf_add(mpf(xm, xe), mpf(ym, ye), prec, RND)
    want_sub = mpf_sub(mpf(xm, xe), mpf(ym, ye), prec, RND)
    xm, xe = data.draw(padded(xm, xe))
    ym, ye = data.draw(padded(ym, ye))
    assert mpf(*_add(xm, xe, ym, ye, prec)) == want_add
    assert mpf(*_add(xm, xe, -ym, ye, prec)) == want_sub
    assert mpf(*_add(xm, xe, 0, ye, prec)) == mpf_add(mpf(xm, xe), mpf(0, 0), prec, RND)


@settings(max_examples=400, deadline=None)
@given(case=operand_pairs())
def test_sums_of_exact_products_match_mpc_mul(case):
    # mpc_mul rounds the sum of two exact products of prec-bit parts once
    prec, xm, xe, ym, ye = case
    parts = [_round(m, e, prec) for m, e in ((xm, xe), (ym, ye), (xm + 7, ye), (ym - 3, xe))]
    (am, ae), (bm, be), (cm, ce), (dm, de) = parts
    want = mpf_sub(mpf_mul(mpf(am, ae), mpf(cm, ce)), mpf_mul(mpf(bm, be), mpf(dm, de)), prec, RND)
    assert mpf(*_add(am * cm, ae + ce, -bm * dm, be + de, prec)) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=operand_pairs())
def test_round_and_products_match_mpf_mul(data, case):
    prec, xm, xe, ym, ye = case
    assert mpf(*_round(xm, xe, prec)) == from_man_exp(xm, xe, prec, RND)
    want = mpf_mul(mpf(xm, xe), mpf(ym, ye), prec, RND)
    xm, xe = data.draw(padded(xm, xe))
    assert mpf(*_round(xm * ym, xe + ye, prec)) == want


@settings(max_examples=200, deadline=None)
@given(
    prec=precisions,
    kept=st.integers(0, 2**60),
    extra=st.integers(17, 200),
    tiny_low=st.sampled_from((-110, -300, -5, 0)),
    negative=st.booleans(),
)
def test_add_follows_mpf_add_on_wide_operands_near_a_tie(prec, kept, extra, tiny_low, negative):
    # x has prec kept bits, a clear round bit and `extra` ones below it: just
    # under halfway.  y lies more than prec + 4 bits below x's top but reaches
    # past the halfway point, so the exact sum rounds up.  With y's lowest bit
    # more than 100 bits under x's, mpf_add nudges x instead and rounds down.
    kept = 2 ** (prec - 1) + kept % 2 ** (prec - 1)
    xm = (kept << extra + 1) | (2**extra - 1)
    ym = (2 ** (12 - tiny_low) - 1) if tiny_low else 2**12  # top bit at 2**12
    ye = tiny_low
    if negative:
        xm, ym = -xm, -ym
    want = mpf_add(mpf(xm, 0), mpf(ym, ye), prec, RND)
    assert mpf(*_add(xm, 0, ym, ye, prec)) == want
    if tiny_low < -100:
        assert want != from_man_exp((xm << -ye) + ym, ye, prec, RND)  # not the exact sum


@st.composite
def far_apart_pairs(draw):
    """Operands whose lowest set bits lie 99, 100, 101 or more apart, with x the
    larger: mpf_add nudges x only where they lie more than 100 apart and the
    top bits more than prec + 4.  A "tie" x holds prec kept bits, a clear round
    bit and ones below it down to its lowest bit, and y reaches past that bit,
    so the exact sum rounds up where the nudge rounds down."""
    prec = draw(st.sampled_from((53, 128, 1024)))
    low = draw(st.one_of(st.sampled_from((99, 100, 101)), st.integers(102, 3000)))
    xe = draw(st.integers(-2000, 2000))
    if draw(st.booleans()):
        ybits = low + draw(st.integers(1, 60))
        extra = ybits - low + 4 + draw(st.integers(0, 100))  # top bits more than prec + 4 apart
        kept = draw(st.integers(2 ** (prec - 1), 2**prec - 1))
        xm = (kept << extra + 1) | (2**extra - 1)
    else:
        ybits = draw(st.integers(1, 200))
        xm = draw(st.integers(1, 2 ** draw(st.integers(1, 2 * prec + 10)))) | 1
    ym = draw(st.integers(2 ** (ybits - 1), 2**ybits - 1)) | 1
    xm = xm if draw(st.booleans()) else -xm
    ym = ym if draw(st.booleans()) else -ym
    return prec, xm, xe, ym, xe - low


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=far_apart_pairs())
def test_add_applies_the_far_apart_nudge_of_mpf_add(data, case):
    prec, xm, xe, ym, ye = case
    want = mpf_add(mpf(xm, xe), mpf(ym, ye), prec, RND)
    xm, xe = data.draw(padded(xm, xe))
    ym, ye = data.draw(padded(ym, ye))
    assert mpf(*_add(xm, xe, ym, ye, prec)) == want
    assert mpf(*_add(ym, ye, xm, xe, prec)) == want


def test_exact_ties_round_to_even():
    prec = 53
    even, odd = 2**52, 2**52 + 1  # 53-bit mantissas, the first even and the second odd
    assert _round(2 * even + 1, 0, prec) == (even, 1)
    assert _round(2 * odd + 1, 0, prec) == (odd + 1, 1)
    assert _round(-(2 * odd + 1), 0, prec) == (-(odd + 1), 1)
    assert _round(2 * odd + 1, 0, prec) != (odd, 1)


def test_far_apart_sum_keeps_the_larger_operand_without_a_huge_shift():
    # a gap of 10**9 bits: an exact alignment would need a 125 MB integer
    prec = 128
    x = _round(3**90, -40, prec)
    for tiny in (-1, 1):
        want = mpf_add(mpf(*x), mpf(tiny, -(10**9)), prec, RND)
        assert mpf(*_add(*x, tiny, -(10**9), prec)) == want
    assert mpf(*_add(*x, 1, -(10**9), prec)) == mpf(*x)


@settings(max_examples=150, deadline=None)
@given(
    radius=st.one_of(st.floats(0.01, 1e6), st.integers(1, 10**6).map(float)),
    samples=st.integers(8, 300),
    prec=st.sampled_from((53, 128, 200, 700)),
    data=st.data(),
)
def test_circle_points_match_the_mpmath_expression(radius, samples, prec, data):
    k = data.draw(st.integers(0, samples // 2))
    with mpmath.workprec(prec):
        if 2 * k == samples:
            want = mpmath.mpc(-radius, 0)
        else:
            want = radius * mpmath.exp(mpmath.mpc(0, 1) * (2 * mpmath.pi * k / samples))
        assert _circle_point(radius, k, samples, prec) == want._mpc_


@settings(max_examples=120, deadline=None)
@given(
    sol=streams(),
    re=st.floats(-25, 25),
    im=st.sampled_from((1e-30, -1e-45, 2.0**-300, 0.75)),
    prec=st.sampled_from((53, 128, 333, 1000)),
)
def test_eval_series_matches_the_mpc_loop_near_the_real_axis_and_at_high_precision(sol, re, im, prec):
    # a tiny imaginary part keeps the weight's parts far apart, where mpc_mul
    # rounds products of 2 * prec bits by mpf_add's far-apart rule
    z = complex(re, im)
    with precision(prec):
        got = _outcome(eval_series, sol, z)
    assert _fields(got) == _outcome(oracle_eval, sol, z, prec=prec)


@pytest.mark.parametrize("prec", (53, 128, 1024))
def test_eval_series_matches_the_mpc_loop_where_base_minus_n_lies_far_apart(prec):
    # a real part far below 1, or far above every n, makes base - n a pair
    # that mpf_add nudges; the kernel rounds the exact difference instead
    decaying = SeriesSolution.from_values([Fraction(1, math.factorial(n) ** 2) for n in range(80)])
    finite = SeriesSolution.from_values([Fraction(1), Fraction(-2, 3), Fraction(5), 0, 0, 0])
    cases = [(decaying, complex(re, im)) for re in (2.0**-300, -5e-324, 1e-30, 0.0) for im in (0.0, 0.75, 1e-30)]
    cases += [(finite, complex(re, im)) for re in (2.0**300, -(2.0**200)) for im in (0.0, 3.5, 2.0**-400)]
    for sol, z in cases:
        with precision(prec):
            got = _outcome(eval_series, sol, z)
        assert not isinstance(got, str), z
        assert _fields(got) == _outcome(oracle_eval, sol, z, prec=prec), z


def test_the_weight_step_nudges_a_far_apart_pair_of_products_as_mpc_mul_does():
    # ff(z, 2) = z (z - 1).  With z = B 2**-40 + i 2**-40 (1 + 2**-52), its
    # real part is P - Q for P = B (B - 2**40) 2**-80, whose bits below the
    # 53 kept ones are 1, then zeros, then a 1 at 2**-80, and Q = Im(z)**2,
    # whose top bit lies 105 bits under P's and lowest bit 104 under P's.
    # mpc_mul nudges P and rounds up; the exact P - Q lies under the halfway
    # point and rounds down.  B solves the congruence for P's bits.
    sol = SeriesSolution.from_values([0, 0, 1, 0, 0, 0])
    z = complex(6755949196869631 * 2.0**-40, 2.0**-40 * (1 + 2.0**-52))
    with precision(53):
        got = eval_series(sol, z)
    want = oracle_eval(sol, z, prec=53)
    assert _fields(got) == want
    exact = Fraction(z.real) * (Fraction(z.real) - 1) - Fraction(z.imag) ** 2
    assert want[0].real != float(exact)  # the nudge differs from the exact sum here


@pytest.mark.parametrize("prec", (53, 300))
def test_max_modulus_equals_the_full_circle_at_other_precisions(prec):
    sol = SeriesSolution.from_values(
        [Fraction(1, math.factorial(n) ** 2) for n in range(60)], rho=Fraction(3, 2)
    )
    for samples in (9, 33):
        with precision(prec):
            got = max_modulus(sol, 7.5, samples=samples)
        assert got == oracle_max_modulus(sol, 7.5, samples, prec=prec)


def test_unit_points_are_made_once_per_samples_and_precision(monkeypatch):
    sol = SeriesSolution.from_values(
        [Fraction(1, math.factorial(n) ** 2) for n in range(60)], rho=Fraction(3, 2)
    )
    for prec in (53, 128, 53):
        for samples in (8, 9, 64):
            with precision(prec):
                got = max_modulus(sol, 7.5, samples=samples)
            assert got == oracle_max_modulus(sol, 7.5, samples, prec=prec, upper_half=True)
    made = []
    mpc_exp = evaluation.mpc_exp
    monkeypatch.setattr(evaluation, "mpc_exp", lambda *args: made.append(args[1]) or mpc_exp(*args))
    evaluation._unit_points.cache_clear()
    for prec in (128, 53):
        with precision(prec):
            empirical_order(sol, [3.5, 5.5, 7.5, 9.5, 11.5], samples=64)
    # k = 0 .. 31 at each precision; k = 32 is the negative axis, -radius exactly
    assert made == [128] * 32 + [53] * 32


def test_the_exact_side_runs_a_few_times_per_sum_not_per_term(monkeypatch):
    # the libmp calls of the coefficient conversion, the unit-point table and
    # the far-apart sums are not the stopping rule's
    elsewhere = {"_rational_mpf", "_unit_points", "_add"}
    per_sum = []  # a call after a sum, as eval_series makes, counts towards it

    def counted(operation):
        def call(*args):
            if sys._getframe(1).f_code.co_name not in elsewhere:
                per_sum[-1] += 1
            return operation(*args)

        return call

    for name in ("mpf_hypot", "mpf_div", "mpf_add", "mpf_mul", "mpf_lt"):
        monkeypatch.setattr(evaluation, name, counted(getattr(evaluation, name)))
    sum_series = evaluation._sum_series

    def one_sum(*args):
        per_sum.append(0)
        return sum_series(*args)

    monkeypatch.setattr(evaluation, "_sum_series", one_sum)
    sol = SeriesSolution.from_values(third_order_stream(400))  # the README pins
    eval_series(sol, 2.5)
    max_modulus(sol, 50)
    empirical_order(sol, [50, 100, 200, 400, 800])
    # eval_series forms the tail (two moduli and their ratio) and the peak's
    # modulus from its sum's terms; a circle sum forms neither
    assert per_sum == [4] + [0] * (33 + 5 * 33)
