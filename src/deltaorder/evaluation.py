"""Numeric evaluation of binomial series and empirical growth fitting.

This is the one module that imports mpmath, so the package loads it only
when an evaluation name is first used.  Falling powers with a general
exponent (the gamma quotient) are evaluated here too.

Partial sums are accumulated in arbitrary-precision floating point (the
working precision comes from DELTAORDER_PRECISION, default 128 bits), so the
factorial growth of raw falling powers never overflows even when the decaying
exact coefficients have not yet taken over.  The stopping rule is heuristic:
three consecutive nonzero terms below tolerance with the running term ratio
under one half.

The summation kernel works on integer mantissas: each real is a pair of
Python ints (m, e) worth m * 2**e.  The terms a_n * ff(base, n), the running
total and the falling-power weights are each formed exactly and rounded once
to the ambient precision, to nearest with ties to even, as ``mpf_mul`` and
``mpf_add`` round them at round_nearest; operands whose top bits lie more
than prec + 4 apart go to ``mpf_add`` itself, which sums them by a nudge
rather than an exact shift.  The weight update rounds base - n, the exact
difference, which ``mpf_add`` returns even where it nudges, as neither
operand has more than prec bits, and sums each part of weight * (base - n)
from its two exact products by ``_add``.  The kernel gives the results of a
plain mpc loop bit for bit, in its order; raw mpf values appear only at its
edges (the coefficients, base and tolerance going in, the total coming out).
The stopping rule's three comparisons (a term's ratio to the last nonzero
term against 1/2, |term| against tol * (|total| + 1), and |term| against the
peak) only steer the loop, so each is taken from estimates: first from the
top exponents, where those lie two or more apart, then from log2 estimates
read off the top 60 bits of the mantissas.  Those lie within 2**-46 of the
exact log2 whatever the exponents, and the loop's rounded moduli, ratio and
bound lie within a few units of 2**-53 of the values they round, so an
estimate more than 2**-30 from its boundary decides as the loop does.
Within 2**-30 the exact side decides, with libmp's own operations on the
loop's values: ``mpf_hypot`` for the moduli, ``mpf_div`` for the ratio,
``mpf_add`` and ``mpf_mul`` for the bound and ``mpf_lt`` to compare.  A sum
of a few hundred terms thus takes a few moduli, or none, instead of one or
two square roots and a division per term: the sum hands back its last two
terms and its peak, and only ``eval_series`` forms the tail and the log
scale from them.
Each call scans the support of the exact coefficients once and converts a
coefficient only when the sum reaches it, so a sum that settles after ten
terms converts ten; the circle samples and radii of one call share the
converted values, and no coefficient is kept between calls.  ``eval_series``
and each circle sample of the maximum modulus evaluate f(z) by one routine:
the prefactor ff(z, rho) at the working precision, the sum at z - rho, and
their product, with rho converted once per call.  The circle points and
moduli of the maximum modulus are the libmp operations of the mpmath
expressions they replaced, in the same order; the unit points exp(2 pi i k /
samples) are made once per (samples, precision) and kept in a small cache,
so each circle point costs one multiplication by the radius.

The coefficients and the offset are rational, so |f(conj z)| = |f(z)|: the
maximum modulus is taken over the samples k = 0 .. samples // 2 of the angles
2 pi k / samples, the closed upper half of the circle, which includes both
ends of the real axis.  The samples are mutually independent (the maximum is
order-free), and the sample angles are deterministic.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    fninf,
    fone,
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpc_abs,
    mpc_exp,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub_mpf,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_hypot,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    round_nearest,
    to_float,
)

from ._record import Record, _set
from .errors import EvaluationError, GammaPoleError, NonConvergenceError
from .polynomials import MAX_RADII, MAX_SAMPLES, as_rational, working_precision
from .series import SeriesSolution

_RND = round_nearest
_HALF = from_man_exp(1, -1)


class EvalResult(Record):
    """A single series evaluation with convergence diagnostics.

    ``tail_bound`` is a geometric estimate of the omitted tail of ``value``,
    |ff(z, rho)| |last term| r / (1 - r) with r the last term ratio (at most
    1/2 when the sum stops): a heuristic, not a rigorous bound on the
    truncation error.  It is 0.0 for a finitely supported stream, when the
    last term is zero and when the prefactor ff(z, rho) is.  ``log_scale``
    is the natural log of the largest term modulus times |ff(z, rho)|, the
    largest term of ``value``; -inf when no term or the prefactor is zero.
    At rho 0 the prefactor is 1.
    """

    __slots__ = ("value", "terms_used", "tail_bound", "log_scale")

    def __init__(self, value: complex, terms_used: int, tail_bound: float, log_scale: float):
        _set(self, "value", value)
        _set(self, "terms_used", terms_used)
        _set(self, "tail_bound", tail_bound)
        _set(self, "log_scale", log_scale)


class EmpiricalOrder(Record):
    """Growth-order fit from maximum-modulus samples at increasing radii.

    ``scale_hat`` is set here, from the last sample: log M(r) / r^rho_hat.
    """

    __slots__ = ("radii", "log_max_modulus", "rho_hat", "scale_hat", "fit_residual")

    def __init__(
        self,
        radii: tuple[float, ...],
        log_max_modulus: tuple[float, ...],
        rho_hat: float,
        fit_residual: float,
    ):
        _set(self, "radii", radii)
        _set(self, "log_max_modulus", log_max_modulus)
        _set(self, "rho_hat", rho_hat)
        _set(self, "scale_hat", log_max_modulus[-1] / radii[-1] ** rho_hat)
        _set(self, "fit_residual", fit_residual)


def _rational_mpf(q, prec: int):
    """The raw mpf num/den, the numerator rounded first as ``mpf(num) / den`` does."""
    return mpf_div(from_int(q.numerator, prec, _RND), from_int(q.denominator), prec, _RND)


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


def _falling_power_mp(z, rho):
    """ff(z, rho) = Gamma(z+1)/Gamma(z+1-rho) as an mp number at the ambient precision.

    It goes through log-gamma, but an integer rho takes the product z(z-1)...(z-rho+1),
    or the reciprocal rising product when negative.  A pole of the quotient (z+1 a
    non-positive integer) raises :class:`GammaPoleError`; where only z+1-rho is one, it is 0.
    """
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
    value = mpmath.exp(mpmath.loggamma(top) - mpmath.loggamma(bottom))
    # a real quotient: loggamma of a negative real carries an imaginary part k pi
    return value.real if mpmath.im(top) == 0 and mpmath.im(bottom) == 0 else value


# --- integer-mantissa arithmetic ---------------------------------------------
#
# A real number is a pair of ints (m, e) worth m * 2**e: the mantissa carries
# the sign, and zero is m == 0 with any exponent.  Each operation forms its
# exact result and rounds it once, so it returns the same value as the libmp
# operation it stands for at round_nearest, whatever trailing zeros the
# mantissas carry.  The stopping rule's exact side calls libmp itself.


def _pair(x) -> tuple[int, int]:
    """The (mantissa, exponent) pair of a finite raw mpf."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _round(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded to prec bits, to nearest with ties to even."""
    shift = m.bit_length() - prec
    if shift <= 0:
        return m, e
    # floor shifts of a signed m: the rounding is symmetric, so no sign juggling
    q = m >> (shift - 1)  # the kept bits and the round bit
    if q & 1 and (q & 2 or m & ((1 << (shift - 1)) - 1)):
        q += 1
    return q >> 1, e + shift


def _add(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple[int, int]:
    """x + y rounded to prec bits as ``mpf_add`` rounds it.

    The exact sum is rounded, except where the top bits lie more than
    prec + 4 apart: such a pair goes to ``mpf_add`` itself, which nudges the
    larger operand instead when the lowest set bits also lie more than 100
    apart.  For operands of at most prec + 1 bits the nudge gives the
    correctly rounded sum; for an exact product of two prec-bit values it
    can differ from it, and ``mpc_mul`` sums such products.
    """
    if not ym:
        return _round(xm, xe, prec)
    if not xm:
        return _round(ym, ye, prec)
    if abs(xm.bit_length() + xe - ym.bit_length() - ye) > prec + 4:
        return _pair(mpf_add(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND))
    if xe > ye:
        return _round((xm << xe - ye) + ym, ye, prec)
    return _round(xm + (ym << ye - xe), xe, prec)


# --- the float filter of the stopping rule (see the module docstring) --------

#: Half-width, in log2, of the band around a decision's boundary inside which
#: the exact magnitudes decide.  An estimate lies within 2**-46 of the exact
#: log2, and each rounded magnitude the exact rule compares within 3 * 2**-53
#: (three roundings at prec >= 53) of the value it rounds, so outside the band
#: the estimate and the exact comparison agree.
_MARGIN = 2.0**-30


def _top(xm: int, xe: int, ym: int, ye: int) -> int:
    """The top exponent k of a nonzero x + iy: log2 |x + iy| lies in [k - 1, k + 1/2)."""
    if not xm:
        return ym.bit_length() + ye
    if not ym:
        return xm.bit_length() + xe
    return max(xm.bit_length() + xe, ym.bit_length() + ye)


def _log2_frac(xm: int, xe: int, ym: int, ye: int, k: int) -> float:
    """log2 |x + iy| - k within 2**-46, for x + iy nonzero of top exponent k.

    Both parts are read at the scale where the larger one has 60 bits, so no
    float overflows or underflows whatever the exponents.
    """
    s, t = k - 60 - xe, k - 60 - ye
    x = float(xm >> s if s >= 0 else xm << -s)
    y = float(ym >> t if t >= 0 else ym << -t)
    return math.log2(math.hypot(x, y)) - 60


def _modulus(xm: int, xe: int, ym: int, ye: int, prec: int):
    """|x + iy| as the raw mpf that ``mpf_hypot`` rounds it to."""
    return mpf_hypot(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND)


class _Term:
    """A nonzero term of the sum: its parts, its top exponent, and, each made
    on first use, the log2 estimate of its modulus and the modulus as a raw
    mpf (``_modulus``)."""

    __slots__ = ("parts", "top", "_frac", "_modulus")

    def __init__(self, parts: tuple[int, int, int, int]):
        self.parts = parts
        self.top = _top(*parts)
        self._frac = self._modulus = None

    def frac(self) -> float:
        if self._frac is None:
            self._frac = _log2_frac(*self.parts, self.top)
        return self._frac

    def exact(self, prec: int):
        if self._modulus is None:
            self._modulus = _modulus(*self.parts, prec)
        return self._modulus

    def over(self, other: "_Term", shift: int) -> float:
        """The sign of log2 |self| - log2 |other| - shift as estimates tell it, 0 when they cannot."""
        d = self.top - other.top - shift
        if d >= 2 or d <= -2:  # the fractions differ by at most 3/2
            return d
        d += self.frac() - other.frac()
        return 0 if -_MARGIN <= d <= _MARGIN else d


def _over_bound(term: _Term, srm: int, sre: int, sim: int, sie: int, tol_log2: float) -> float:
    """The sign of log2 |term| - log2(tol * (|total| + 1)) as estimates tell it, 0 when they cannot."""
    k = _top(srm, sre, sim, sie) if srm or sim else -65  # a zero total counts as a tiny one
    # log2(|total| + 1) = k0 + x with x in [-1, 3/2], and log2 |term| = top + f
    # with f in [-1, 1/2]: the difference is d + f - x
    k0 = max(k, 0)
    d = term.top - k0 - tol_log2
    if d < -2 or d > 3:
        return d
    if k > 64:  # x = the fraction of log2 |total|, within log2(1 + 1/|total|) < 2**-62
        d -= _log2_frac(srm, sre, sim, sie, k)
    elif k >= -64:  # else x = log2(1 + |total|) < 2**-62
        d -= math.log2(math.ldexp(2.0 ** _log2_frac(srm, sre, sim, sie, k), k) + 1) - k0
    d += term.frac()
    return 0 if -_MARGIN <= d <= _MARGIN else d


class _Stream:
    """One call's coefficients: the support, scanned once, and mantissas made on first use.

    ``last`` is the last nonzero index (None for the zero stream).  The stream
    is finitely supported when at least as many zeros as its support modulus,
    and at least three, follow ``last``; such a stream sums exactly.
    ``pairs[n]`` is the (mantissa, exponent) pair of a_n rounded as
    ``_rational_mpf`` rounds it, or None for a zero, at the precision of the
    call.
    """

    __slots__ = ("coeffs", "last", "finite", "pairs")

    def __init__(self, sol: SeriesSolution):
        coeffs = sol.coeffs
        self.coeffs = coeffs
        self.last = next((n for n in range(len(coeffs) - 1, -1, -1) if coeffs[n]), None)
        zeros = 0 if self.last is None else len(coeffs) - 1 - self.last
        self.finite = zeros >= 3 and zeros >= (sol.support_modulus or 1)
        self.pairs = []


def _sum_series(stream: _Stream, base, tol):
    """Accumulate  sum a_n * ff(base, n)  with the three-term stopping rule.

    ``base`` (mpc) and ``tol`` (mpf) are raw libmp values; returns the raw
    total, the terms used, the last two nonzero ``_Term``s where the sum
    stopped on a nonzero term (else None) and the peak ``_Term`` (None when
    no term is nonzero).  The loop runs on (mantissa, exponent) pairs and
    rounds each step as the mpc loop does: the term a_n * weight, the total
    and the weight update weight * (base - n).  The rule's comparisons of
    |term| with the last nonzero |term| / 2, with tol * (|total| + 1) and
    with the peak go through the float filter above.  Its exact side makes
    the mpc loop's own libmp calls on raw mpf values: ``mpf_hypot`` for
    |term| and |total|, ``mpf_div`` for the ratio, and ``mpf_add`` and
    ``mpf_mul`` for the bound, compared by ``mpf_lt``.  A zero coefficient
    only advances the falling-power weight, since adding an exact zero
    leaves the total as it is.
    """
    prec = mpmath.mp.prec
    last = stream.last
    if last is None:
        return (fzero, fzero), 1, None, None
    coeffs, pairs = stream.coeffs, stream.pairs
    have = len(pairs)
    brm, bre = _pair(base[0])
    bim, bie = _pair(base[1])
    tolm, tole = _pair(tol)
    tol_log2 = math.log2(tolm) + tole
    crm, cre = brm, bre  # base - n
    wrm, wre, wim, wie = 1, 0, 0, 0  # the weight ff(base, n)
    srm, sre, sim, sie = 0, 0, 0, 0  # the total
    peak = term = before = None  # the peak, the last and the one before the last nonzero term
    small_run = 0
    for n in range(last + 1):
        if n < have:
            a = pairs[n]
        else:
            c = coeffs[n]
            a = _pair(_rational_mpf(c, prec)) if c else None
            pairs.append(a)
        if a is not None:
            am, ae = a
            trm, tre = _round(wrm * am, wre + ae, prec)
            tim, tie = _round(wim * am, wie + ae, prec)
            srm, sre = _add(srm, sre, trm, tre, prec)
            sim, sie = _add(sim, sie, tim, tie, prec)
            if not (trm or tim):
                small_run += 1
            else:
                before, term = term, _Term((trm, tre, tim, tie))
                if peak is None:
                    peak = term
                else:
                    d = term.over(peak, 0)
                    if d > 0 or not d and mpf_lt(peak.exact(prec), term.exact(prec)):
                        peak = term
                small = False
                if before is not None:
                    # the ratio test first (below 1/2 when d < 0): the bound needs |total|
                    d = term.over(before, -1)
                    if not d:
                        ratio = mpf_div(term.exact(prec), before.exact(prec), prec, _RND)
                        d = -1 if mpf_lt(ratio, _HALF) else 1
                    if d < 0:
                        d = _over_bound(term, srm, sre, sim, sie, tol_log2)
                        if not d:
                            # tol * (|total| + 1) against |term|, rounded as the mpc loop rounds them
                            total1 = mpf_add(_modulus(srm, sre, sim, sie, prec), fone, prec, _RND)
                            d = 1 if mpf_lt(mpf_mul(tol, total1, prec, _RND), term.exact(prec)) else -1
                        small = d < 0
                small_run = small_run + 1 if small else 0
            if small_run >= 3:
                total = (from_man_exp(srm, sre), from_man_exp(sim, sie))
                return total, n + 1, (before, term) if trm or tim else None, peak
        # weight * (base - n) as mpc_mul forms it: base - n rounded (where
        # mpf_add would nudge it, the exact difference rounds the same, as
        # neither operand has more than prec bits), then each part the sum of
        # two exact products.
        if n:
            crm, cre = _round((brm << bre) - n, 0, prec) if bre >= 0 else _round(brm - (n << -bre), bre, prec)
        wrm, wre, wim, wie = (
            *_add(wrm * crm, wre + cre, -wim * bim, wie + bie, prec),
            *_add(wrm * bim, wre + bie, wim * crm, wie + cre, prec),
        )
    if stream.finite:
        total = (from_man_exp(srm, sre), from_man_exp(sim, sie))
        return total, last + 1, None, peak
    raise NonConvergenceError(f"series did not settle within {len(coeffs)} coefficients")


def _value_at(stream: _Stream, rho: Fraction, rho_mpf, z, point, tol):
    """f(z) = ff(z, rho) * sum a_n ff(z - rho, n) as a raw mpc, ``_sum_series``' other results and ff(z, rho).

    The prefactor, made only for a nonzero rho, sees ``z`` (an exact rational
    is tested for poles exactly) and comes first, so a pole raises
    GammaPoleError before any term is summed; the sum runs at the raw mpc
    ``point`` minus ``rho_mpf``, rho as a raw mpf, to the raw mpf ``tol``.
    The prefactor is returned as a raw mpc, or None for rho 0.
    """
    prec = mpmath.mp.prec
    prefactor = mpmath.mpc(_falling_power_mp(z, rho))._mpc_ if rho else None
    base = mpc_sub_mpf(point, rho_mpf, prec, _RND)
    total, used, stop, peak = _sum_series(stream, base, tol)
    if prefactor is not None:
        total = mpc_mul(prefactor, total, prec, _RND)
    return total, used, stop, peak, prefactor


def _check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _check_circle(radius, samples: int, tol) -> None:
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius!r}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 8:
        raise ValueError("at least 8 circle samples are required")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    _check_tol(tol)


def eval_series(sol: SeriesSolution, z, tol: float = 1e-12) -> EvalResult:
    """Evaluate a series at a complex point.

    A nonzero offset rho contributes the prefactor ff(z, rho) (a gamma
    quotient, whose poles raise GammaPoleError) and shifts the falling-power
    base to z - rho.  Raises NonConvergenceError when the available
    coefficients do not reach the stopping rule, EvaluationError for a value
    past the double range, and ValueError for a non-finite z or a tol that
    is not a positive finite number.
    """
    point = complex(z)
    if not cmath.isfinite(point):
        raise ValueError(f"z must be finite, got {z!r}")
    _check_tol(tol)
    with mpmath.workprec(working_precision()):
        prec, rho = mpmath.mp.prec, sol.rho_offset
        stream, tol_mp = _Stream(sol), mpmath.mpf(tol)._mpf_
        value, used, stop, peak, prefactor = _value_at(
            stream, rho, _rational_mpf(rho, prec), z, mpmath.mpc(point)._mpc_, tol_mp
        )
        # mpmath converts a value past the double range to inf rather than raising
        value = complex(mpmath.mp.make_mpc(value))
        if not cmath.isfinite(value):
            raise EvaluationError("value exceeds the double range")
        # the tail and the peak describe the printed value: the sum's times
        # |ff(z, rho)|, formed before the float, so that a term past the
        # double range times a tiny prefactor still prints
        size = None if prefactor is None else mpc_abs(prefactor, prec, _RND)
        tail = 0.0
        if stop is not None:
            # the last term passed ratio < 1/2, so r <= 1/2
            before, term = stop
            modulus = term.exact(prec)
            r = to_float(mpf_div(modulus, before.exact(prec), prec, _RND), rnd=_RND)
            if size is not None:
                modulus = mpf_mul(modulus, size, prec, _RND)
            tail = to_float(modulus, rnd=_RND) * r / (1 - r) if r else 0.0
        log_scale = -math.inf
        if peak is not None:
            top = peak.exact(prec) if size is None else mpf_mul(peak.exact(prec), size, prec, _RND)
            log_scale = float(mpmath.log(mpmath.mp.make_mpf(top)))
    return EvalResult(value=value, terms_used=used, tail_bound=tail, log_scale=log_scale)


@functools.lru_cache(maxsize=4)
def _unit_points(samples: int, prec: int) -> tuple:
    """The raw mpc  exp(mpc(0, 1) * (2 * pi * k / samples))  for 2k < samples, as mpmath computes it.

    Every radius shares them.  The cache holds the last four (samples, prec)
    keys: 5 kB at the default 64 samples and 128 bits, 1.04 MB at
    MAX_SAMPLES and 1024 bits (tracemalloc).
    """
    two_pi = mpf_mul_int(mpf_pi(prec, _RND), 2, prec, _RND)
    points = []
    for k in range((samples + 1) // 2):
        angle = mpf_div(mpf_mul_int(two_pi, k, prec, _RND), from_int(samples), prec, _RND)
        points.append(mpc_exp((fzero, angle), prec, _RND))
    return tuple(points)


def _circle_point(radius: float, k: int, samples: int, prec: int):
    """The raw mpc  radius * exp(mpc(0, 1) * (2 * pi * k / samples))  as mpmath computes it.

    The unit point comes from ``_unit_points``.  The sample on the negative
    axis is -radius exactly: exp(i pi) of a rounded pi is not real.
    """
    if 2 * k == samples:
        return from_float(-radius, prec, _RND), fzero
    return mpc_mul_mpf(_unit_points(samples, prec)[k], from_float(radius), prec, _RND)


def _log_max_modulus(sol, stream, radius: float, samples, tol, bits) -> float:
    """log max |f| over the upper-half circle samples (the lower half mirrors them).

    Each sample runs the libmp operations of the mpmath expressions
    log(abs(f(z))) and of the running maximum, in their order.
    """
    with mpmath.workprec(bits):
        rho = sol.rho_offset
        rho_mpf, tol_mp = _rational_mpf(rho, bits), mpmath.mpf(tol)._mpf_
        best = fninf
        for k in range(samples // 2 + 1):
            point = _circle_point(radius, k, samples, bits)
            z = mpmath.mp.make_mpc(point) if rho else None
            try:
                value = _value_at(stream, rho, rho_mpf, z, point, tol_mp)[0]
            except GammaPoleError as exc:
                raise EvaluationError(f"gamma pole on the circle at z={z}") from exc
            magnitude = mpc_abs(value, bits, _RND)
            if magnitude != fzero:
                log_mag = mpf_log(magnitude, bits, _RND)
                if mpf_gt(log_mag, best):
                    best = log_mag
        return to_float(best, rnd=_RND)


def max_modulus(sol: SeriesSolution, radius: float, samples: int = 64, tol: float = 1e-12) -> float:
    """Maximum of |f| over equally spaced points on the circle |z| = radius.

    Deterministic for fixed inputs.  Raises EvaluationError for a maximum
    past the double range, as ``eval_series`` does for its value
    (log-domain fitting uses the internal log value instead), and
    ValueError for a radius that is not positive and finite, fewer than 8 or
    more than MAX_SAMPLES samples, or a tol that is not positive and finite.
    """
    _check_circle(radius, samples, tol)
    log_best = _log_max_modulus(sol, _Stream(sol), float(radius), samples, tol, working_precision())
    try:
        return math.exp(log_best)
    except OverflowError:
        raise EvaluationError("max modulus exceeds the double range") from None


def empirical_order(sol: SeriesSolution, radii, samples: int = 64, tol: float = 1e-12) -> EmpiricalOrder:
    """Fit log log M(r) against log r over 4 to MAX_RADII increasing radii.

    The slope estimates the growth order; the scale constant is read off the
    final radius.  Non-monotone max-modulus values are rejected.  The
    arguments are checked as in ``max_modulus`` before any sampling.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("at least four radii are required")
    if len(radii) > MAX_RADII:
        raise ValueError(f"at most {MAX_RADII} radii are allowed, got {len(radii)}")
    for r in radii:
        if not math.isfinite(r):
            raise ValueError(f"radii entries must be finite, got {r!r}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    _check_circle(radii[0], samples, tol)  # the smallest radius
    bits = working_precision()
    stream = _Stream(sol)
    logm = [_log_max_modulus(sol, stream, r, samples, tol, bits) for r in radii]
    if any(b <= a for a, b in zip(logm, logm[1:])):
        raise EvaluationError("max modulus is not increasing over the radii")
    if any(v <= 0 for v in logm):
        raise EvaluationError("max modulus too small for a growth fit")
    xs = [math.log(r) for r in radii]
    ys = [math.log(v) for v in logm]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(
        sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / n
    )
    return EmpiricalOrder(radii=tuple(radii), log_max_modulus=tuple(logm), rho_hat=slope, fit_residual=residual)
