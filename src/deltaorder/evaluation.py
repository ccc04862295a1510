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
Python ints (m, e) worth m * 2**e.  Every step forms its exact result and
rounds it once to the ambient precision, to nearest with ties to even, which
is what ``mpmath.libmp`` does at round_nearest: ``mpf_add``, ``mpf_mul``,
``mpf_div`` and ``mpf_sqrt`` are correctly rounded and ``mpf_hypot`` rounds
its sum of squares toward zero at 4 more bits first.  Operands whose top bits
lie more than prec + 4 apart are handed to ``mpf_add`` and ``mpf_hypot``
themselves, which sum them by a nudge rather than an exact shift.  The kernel
does the operations of a plain mpc loop in the same order, so its results are
those of that loop bit for bit; raw mpf values appear only at its edges (the
coefficients, base and tolerance going in, the total and peak coming out).
Each call scans the support of the exact coefficients once and converts a
coefficient only when the sum reaches it, so a sum that settles after ten
terms converts ten; the circle samples and radii of one call share the
converted values, and nothing is kept between calls.  ``eval_series`` and
each circle sample of the maximum modulus evaluate f(z) by one routine: the
prefactor ff(z, rho) at the working precision, the sum at z - rho, and their
product.  The circle points and moduli of the maximum modulus are the libmp
operations of the mpmath expressions they replaced, in the same order.

The coefficients and the offset are rational, so |f(conj z)| = |f(z)|: the
maximum modulus is taken over the samples k = 0 .. samples // 2 of the angles
2 pi k / samples, the closed upper half of the circle, which includes both
ends of the real axis.  The samples are mutually independent (the maximum is
order-free), and the sample angles are deterministic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    fninf,
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


class EvalResult(Record):
    """A single series evaluation with convergence diagnostics.

    ``tail_bound`` is a geometric estimate of the omitted tail, |last term| r
    / (1 - r) with r the last term ratio (at most 1/2 when the sum stops): a
    heuristic, not a rigorous bound on the truncation error.  It is 0.0 for a
    finitely supported stream and when the last term is zero.
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


def _to_mpc(value) -> mpmath.mpc:
    c = complex(value)
    return mpmath.mpc(c.real, c.imag)


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
# mantissas carry.


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


def _div(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple[int, int]:
    """x / y correctly rounded to prec bits, for y nonzero: a quotient of at
    least prec + 4 bits and a sticky bit for the remainder, as ``mpf_div``."""
    extra = max(prec - xm.bit_length() + ym.bit_length() + 5, 5)
    q, r = divmod(abs(xm) << extra, abs(ym))
    if r:
        q = (q << 1) | 1
        extra += 1
    return _round(-q if (xm < 0) != (ym < 0) else q, xe - ye - extra, prec)


def _sqrt(m: int, e: int, prec: int) -> tuple[int, int]:
    """sqrt(m * 2**e) correctly rounded to prec bits, for m > 0, as ``mpf_sqrt``."""
    if e & 1:
        m <<= 1
        e -= 1
    shift = max(4, 2 * prec - m.bit_length() + 4)
    shift += shift & 1
    m <<= shift
    root = math.isqrt(m)
    if root * root != m:
        root = (root << 1) | 1
        shift += 2
    return _round(root, (e - shift) // 2, prec)


def _hypot(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple[int, int]:
    """|x + iy| as ``mpf_hypot``: the sum of squares is rounded toward zero at
    wp = prec + 4 bits and its square root to nearest at prec bits.  Squares
    whose top bits lie more than wp + 4 apart go to ``mpf_hypot`` itself,
    whose sum of squares follows ``mpf_add``'s rule for far-apart operands."""
    if not ym:
        return _round(abs(xm), xe, prec)
    if not xm:
        return _round(abs(ym), ye, prec)
    xx, yy = xm * xm, ym * ym
    wp = prec + 4
    if abs(xx.bit_length() + 2 * xe - yy.bit_length() - 2 * ye) > wp + 4:
        return _pair(mpf_hypot(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND))
    if xe > ye:
        s, e = (xx << 2 * (xe - ye)) + yy, 2 * ye
    else:
        s, e = xx + (yy << 2 * (ye - xe)), 2 * xe
    shift = s.bit_length() - wp
    if shift > 0:
        s >>= shift
        e += shift
    return _sqrt(s, e, prec)


def _less(xm: int, xe: int, ym: int, ye: int) -> bool:
    """x < y for positive x and y."""
    tx = xm.bit_length() + xe
    ty = ym.bit_length() + ye
    if tx != ty:
        return tx < ty
    if xe > ye:
        return (xm << xe - ye) < ym
    return xm < (ym << ye - xe)


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
    total, the terms used, the tail bound and the raw peak term modulus.  The
    loop runs on (mantissa, exponent) pairs and rounds each step as the mpc
    loop does: the term a_n * weight, the total, |term|, the ratio to the last
    nonzero |term|, the bound tol * (|total| + 1) and the weight update
    weight * (base - n).  A zero coefficient only advances the falling-power
    weight, since adding an exact zero leaves the total as it is.
    """
    prec = mpmath.mp.prec
    last = stream.last
    if last is None:
        return (fzero, fzero), 1, 0.0, fzero
    coeffs, pairs = stream.coeffs, stream.pairs
    have = len(pairs)
    brm, bre = _pair(base[0])
    bim, bie = _pair(base[1])
    tolm, tole = _pair(tol)
    wrm, wre, wim, wie = 1, 0, 0, 0  # the weight ff(base, n)
    srm, sre, sim, sie = 0, 0, 0, 0  # the total
    pkm, pke = 0, 0  # the peak |term|
    lmm = lme = None  # the last nonzero |term|
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
            mm, me = _hypot(trm, tre, tim, tie, prec)
            if not mm:
                small_run += 1
            else:
                if not pkm or _less(pkm, pke, mm, me):
                    pkm, pke = mm, me
                small = False
                if lmm is not None:
                    qm, qe = _div(mm, me, lmm, lme, prec)
                    # the ratio test first (ratio < 1/2 when its top bit lies below
                    # 2**-1): the bound needs |total|, a square root
                    if qm.bit_length() + qe < 0:
                        hm, he = _add(*_hypot(srm, sre, sim, sie, prec), 1, 0, prec)
                        small = not _less(*_round(tolm * hm, tole + he, prec), mm, me)
                lmm, lme = mm, me
                small_run = small_run + 1 if small else 0
            if small_run >= 3:
                tail = 0.0
                if mm:
                    # this term passed ratio < 1/2, so r <= 1/2
                    r = to_float(from_man_exp(qm, qe), rnd=_RND)
                    tail = to_float(from_man_exp(mm, me), rnd=_RND) * r / (1 - r) if r else 0.0
                total = (from_man_exp(srm, sre), from_man_exp(sim, sie))
                return total, n + 1, tail, from_man_exp(pkm, pke)
        # weight * (base - n): mpc_mul sums the exact products, then rounds
        crm, cre = _add(brm, bre, -n, 0, prec)
        wrm, wre, wim, wie = (
            *_add(wrm * crm, wre + cre, -wim * bim, wie + bie, prec),
            *_add(wrm * bim, wre + bie, wim * crm, wie + cre, prec),
        )
    if stream.finite:
        total = (from_man_exp(srm, sre), from_man_exp(sim, sie))
        return total, last + 1, 0.0, from_man_exp(pkm, pke)
    raise NonConvergenceError(f"series did not settle within {len(coeffs)} coefficients")


def _value_at(stream: _Stream, rho: Fraction, z, point, tol):
    """f(z) = ff(z, rho) * sum a_n ff(z - rho, n) as a raw mpc, and ``_sum_series``' diagnostics.

    The prefactor sees ``z`` (an exact rational is tested for poles exactly)
    and comes first, so a pole raises GammaPoleError before any term is
    summed; the sum runs at the raw mpc ``point`` minus rho, to the raw mpf ``tol``.
    """
    prec = mpmath.mp.prec
    prefactor = mpmath.mpc(_falling_power_mp(z, rho))._mpc_ if rho else None
    base = mpc_sub_mpf(point, _rational_mpf(rho, prec), prec, _RND)
    total, used, tail, peak = _sum_series(stream, base, tol)
    if prefactor is not None:
        total = mpc_mul(prefactor, total, prec, _RND)
    return total, used, tail, peak


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
    coefficients do not reach the stopping rule, and ValueError for a
    non-finite z or a tol that is not a positive finite number.
    """
    if not cmath.isfinite(complex(z)):
        raise ValueError(f"z must be finite, got {z!r}")
    _check_tol(tol)
    with mpmath.workprec(working_precision()):
        stream, tol_mp = _Stream(sol), mpmath.mpf(tol)._mpf_
        value, used, tail, peak = _value_at(stream, sol.rho_offset, z, _to_mpc(z)._mpc_, tol_mp)
        try:
            value = complex(mpmath.mp.make_mpc(value))
        except OverflowError as exc:
            raise EvaluationError("value exceeds the double range") from exc
        log_scale = float(mpmath.log(mpmath.mp.make_mpf(peak))) if peak != fzero else -math.inf
    return EvalResult(value=value, terms_used=used, tail_bound=tail, log_scale=log_scale)


def _circle_point(radius: float, k: int, samples: int, prec: int):
    """The raw mpc  radius * exp(mpc(0, 1) * (2 * pi * k / samples))  as mpmath computes it.

    The sample on the negative axis is -radius exactly: exp(i pi) of a
    rounded pi is not real.
    """
    if 2 * k == samples:
        return from_float(-radius, prec, _RND), fzero
    two_pi = mpf_mul_int(mpf_pi(prec, _RND), 2, prec, _RND)
    angle = mpf_div(mpf_mul_int(two_pi, k, prec, _RND), from_int(samples), prec, _RND)
    return mpc_mul_mpf(mpc_exp((fzero, angle), prec, _RND), from_float(radius), prec, _RND)


def _log_max_modulus(sol, stream, radius: float, samples, tol, bits) -> float:
    """log max |f| over the upper-half circle samples (the lower half mirrors them).

    Each sample runs the libmp operations of the mpmath expressions
    log(abs(f(z))) and of the running maximum, in their order.
    """
    with mpmath.workprec(bits):
        tol_mp = mpmath.mpf(tol)._mpf_
        best = fninf
        for k in range(samples // 2 + 1):
            point = _circle_point(radius, k, samples, bits)
            z = mpmath.mp.make_mpc(point)
            try:
                value = _value_at(stream, sol.rho_offset, z, point, tol_mp)[0]
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

    Deterministic for fixed inputs; overflows to inf only past the double
    range (log-domain fitting uses the internal log value instead).  Raises
    ValueError for a radius that is not positive and finite, fewer than 8 or
    more than MAX_SAMPLES samples, or a tol that is not positive and finite.
    """
    _check_circle(radius, samples, tol)
    log_best = _log_max_modulus(sol, _Stream(sol), float(radius), samples, tol, working_precision())
    try:
        return math.exp(log_best)
    except OverflowError:
        return math.inf


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
