"""Numeric evaluation of binomial series and empirical growth fitting.

Partial sums are accumulated in arbitrary-precision floating point (the
working precision comes from DELTAORDER_PRECISION, default 128 bits), so the
factorial growth of raw falling powers never overflows even when the decaying
exact coefficients have not yet taken over.  The stopping rule is heuristic:
three consecutive nonzero terms below tolerance with the running term ratio
under one half.

The summation kernel runs on raw ``mpmath.libmp`` values at the ambient
precision with round-to-nearest, doing the operations of a plain mpc loop in
the same order, so its results are those of that loop bit for bit.  Each call
scans the support of the exact coefficients once and converts a coefficient
to mpf only when the sum reaches it, so a sum that settles after ten terms
converts ten; the circle samples and radii of one call share the converted
values, and nothing is kept between calls.

The coefficients and the offset are rational, so |f(conj z)| = |f(z)|: the
maximum modulus is taken over the samples k = 0 .. samples // 2 of the angles
2 pi k / samples, the closed upper half of the circle, which includes both
ends of the real axis.  The samples are mutually independent (the maximum is
order-free), and the sample angles are deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
from mpmath.libmp import (
    finf,
    fone,
    from_float,
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub_mpf,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    round_nearest,
    to_float,
)

from .errors import EvaluationError, GammaPoleError, NonConvergenceError
from .polynomials import _falling_power_mp, falling_power_eval, working_precision
from .series import SeriesSolution

MAX_SAMPLES = 4096
"""Upper bound on the circle samples of ``max_modulus`` and ``empirical_order``."""

_RND = round_nearest
_HALF = from_float(0.5)


@dataclass(frozen=True)
class EvalResult:
    """A single series evaluation with convergence diagnostics."""

    value: complex
    terms_used: int
    tail_bound: float
    log_scale: float


@dataclass(frozen=True)
class EmpiricalOrder:
    """Growth-order fit from maximum-modulus samples at increasing radii."""

    radii: tuple[float, ...]
    log_max_modulus: tuple[float, ...]
    rho_hat: float
    scale_hat: float
    fit_residual: float


def _to_mpc(value) -> mpmath.mpc:
    c = complex(value)
    return mpmath.mpc(c.real, c.imag)


def _rational_mpf(q, prec: int):
    """The raw mpf num/den, the numerator rounded first as ``mpf(num) / den`` does."""
    return mpf_div(from_int(q.numerator, prec, _RND), from_int(q.denominator), prec, _RND)


class _Stream:
    """One call's coefficients: the support, scanned once, and mpf values made on first use.

    ``last`` is the last nonzero index (None for the zero stream).  The stream
    is finitely supported when at least as many zeros as its support modulus,
    and at least three, follow ``last``; such a stream sums exactly.
    ``mpfs[n]`` is the raw mpf of a_n, or None for a zero, at the precision of
    the call.
    """

    __slots__ = ("coeffs", "last", "finite", "mpfs")

    def __init__(self, sol: SeriesSolution):
        coeffs = sol.coeffs
        self.coeffs = coeffs
        self.last = next((n for n in range(len(coeffs) - 1, -1, -1) if coeffs[n]), None)
        self.finite = self.last is not None and len(coeffs) - 1 - self.last >= max(
            3, sol.support_modulus or 1
        )
        self.mpfs = []


def _sum_series(stream: _Stream, base, tol):
    """Accumulate  sum a_n * ff(base, n)  with the three-term stopping rule.

    ``base`` (mpc) and ``tol`` (mpf) are raw libmp values; returns the raw
    total, the terms used, the tail bound and the raw peak term modulus.  A
    zero coefficient only advances the falling-power weight, since adding an
    exact zero leaves the total as it is.
    """
    prec = mpmath.mp.prec
    total = (fzero, fzero)
    peak = fzero
    last = stream.last
    if last is None:
        return total, 1, 0.0, peak
    coeffs, mpfs = stream.coeffs, stream.mpfs
    have = len(mpfs)
    weight = (fone, fzero)
    small_run = 0
    last_mag = None
    for n in range(last + 1):
        if n < have:
            a = mpfs[n]
        else:
            c = coeffs[n]
            a = _rational_mpf(c, prec) if c else None
            mpfs.append(a)
        if a is not None:
            term = mpc_mul_mpf(weight, a, prec, _RND)
            total = mpc_add(total, term, prec, _RND)
            mag = mpc_abs(term, prec, _RND)
            if mpf_gt(mag, peak):
                peak = mag
            if mag == fzero:
                small_run += 1
            else:
                ratio = mpf_div(mag, last_mag, prec, _RND) if last_mag else finf
                last_mag = mag
                # the ratio test first: the bound needs |total|, a square root
                small = mpf_lt(ratio, _HALF)
                if small:
                    scale = mpf_add(mpc_abs(total, prec, _RND), fone, prec, _RND)
                    small = mpf_le(mag, mpf_mul(tol, scale, prec, _RND))
                small_run = small_run + 1 if small else 0
            if small_run >= 3:
                tail = 0.0
                if mag != fzero:
                    # this term passed ratio < 1/2, so r <= 1/2
                    r = to_float(ratio, rnd=_RND)
                    tail = to_float(mag, rnd=_RND) * r / (1 - r) if r else 0.0
                return total, n + 1, tail, peak
        weight = mpc_mul(weight, mpc_sub_mpf(base, from_int(n), prec, _RND), prec, _RND)
    if stream.finite:
        return total, last + 1, 0.0, peak
    raise NonConvergenceError(f"series did not settle within {len(coeffs)} coefficients")


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


def eval_series(
    sol: SeriesSolution, z, tol: float = 1e-12, prec: int | None = None
) -> EvalResult:
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
    bits = prec if prec is not None else working_precision()
    with mpmath.workprec(bits):
        rho = sol.rho_offset
        prefactor = mpmath.mpc(1)
        if rho != 0:
            prefactor = _to_mpc(falling_power_eval(z, rho, prec=bits))
        base = mpc_sub_mpf(_to_mpc(z)._mpc_, _rational_mpf(rho, bits), bits, _RND)
        total, used, tail, peak = _sum_series(_Stream(sol), base, mpmath.mpf(tol)._mpf_)
        try:
            value = complex(prefactor * mpmath.mp.make_mpc(total))
        except OverflowError as exc:
            raise EvaluationError("value exceeds the double range") from exc
        log_scale = float(mpmath.log(mpmath.mp.make_mpf(peak))) if peak != fzero else -math.inf
    return EvalResult(value=value, terms_used=used, tail_bound=tail, log_scale=log_scale)


def _log_max_modulus(sol, stream, radius, samples, tol, bits) -> float:
    """log max |f| over the upper-half circle samples (the lower half mirrors them)."""
    with mpmath.workprec(bits):
        rho = sol.rho_offset
        rho_mp = _rational_mpf(rho, bits)
        tol_mp = mpmath.mpf(tol)._mpf_
        best = mpmath.mpf("-inf")
        for k in range(samples // 2 + 1):
            if 2 * k == samples:
                # exactly on the negative axis: exp(i pi) of a rounded pi is not real
                z = mpmath.mpc(-radius, 0)
            else:
                z = radius * mpmath.exp(mpmath.mpc(0, 1) * (2 * mpmath.pi * k / samples))
            prefactor = mpmath.mpc(1)
            if rho != 0:
                try:
                    prefactor = _falling_power_mp(z, rho)
                except GammaPoleError as exc:
                    raise EvaluationError(f"gamma pole on the circle at z={z}") from exc
            total = _sum_series(stream, mpc_sub_mpf(z._mpc_, rho_mp, bits, _RND), tol_mp)[0]
            magnitude = abs(prefactor * mpmath.mp.make_mpc(total))
            if magnitude > 0:
                log_mag = mpmath.log(magnitude)
                if log_mag > best:
                    best = log_mag
        return float(best)


def max_modulus(
    sol: SeriesSolution,
    radius: float,
    samples: int = 64,
    tol: float = 1e-12,
    prec: int | None = None,
) -> float:
    """Maximum of |f| over equally spaced points on the circle |z| = radius.

    Deterministic for fixed inputs; overflows to inf only past the double
    range (log-domain fitting uses the internal log value instead).  Raises
    ValueError for a radius that is not positive and finite, fewer than 8 or
    more than MAX_SAMPLES samples, or a tol that is not positive and finite.
    """
    _check_circle(radius, samples, tol)
    bits = prec if prec is not None else working_precision()
    log_best = _log_max_modulus(sol, _Stream(sol), radius, samples, tol, bits)
    try:
        return math.exp(log_best)
    except OverflowError:
        return math.inf


def empirical_order(
    sol: SeriesSolution,
    radii,
    samples: int = 64,
    tol: float = 1e-12,
    prec: int | None = None,
) -> EmpiricalOrder:
    """Fit log log M(r) against log r over at least four increasing radii.

    The slope estimates the growth order; the scale constant is read off the
    final radius.  Non-monotone max-modulus values are rejected.  The
    arguments are checked as in ``max_modulus`` before any sampling.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("at least four radii are required")
    for r in radii:
        if not math.isfinite(r):
            raise ValueError(f"radii entries must be finite, got {r!r}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    _check_circle(radii[0], samples, tol)  # the smallest radius
    bits = prec if prec is not None else working_precision()
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
    scale = logm[-1] / (radii[-1] ** slope)
    return EmpiricalOrder(
        radii=tuple(radii),
        log_max_modulus=tuple(logm),
        rho_hat=slope,
        scale_hat=scale,
        fit_residual=residual,
    )
