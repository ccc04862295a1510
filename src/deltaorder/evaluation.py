"""Numeric evaluation of binomial series and empirical growth fitting.

Partial sums are accumulated in arbitrary-precision floating point (the
working precision comes from DELTAORDER_PRECISION, default 128 bits), so the
factorial growth of raw falling powers never overflows even when the decaying
exact coefficients have not yet taken over.  The stopping rule is heuristic:
three consecutive nonzero terms below tolerance with the running term ratio
under one half.

Circle samples are mutually independent (the maximum is order-free), and the
sample angles are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .errors import EvaluationError, GammaPoleError, NonConvergenceError
from .polynomials import _falling_power_mp, falling_power_eval, working_precision
from .series import SeriesSolution


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


def _coeff_mpfs(sol: SeriesSolution) -> list:
    return [
        mpmath.mpf(c.numerator) / c.denominator if c != 0 else mpmath.mpf(0)
        for c in sol.coeffs
    ]


def _sum_series(coeffs_mp, base, tol, modulus=None):
    """Accumulate  sum a_n * ff(base, n)  with the three-term stopping rule.

    A trailing zero run longer than the support modulus marks a finitely
    supported stream, which sums exactly.
    """
    total = mpmath.mpc(0)
    weight = mpmath.mpc(1)
    small_run = 0
    last_mag = None
    peak = mpmath.mpf(0)
    terms_used = 0
    tail = 0.0
    nonzero_indices = [n for n, c in enumerate(coeffs_mp) if c != 0]
    if not nonzero_indices:
        return total, 1, 0.0, peak
    trailing_zeros = len(coeffs_mp) - 1 - nonzero_indices[-1]
    finite_support = trailing_zeros >= max(3, modulus or 1)
    for n, a in enumerate(coeffs_mp):
        term = a * weight
        total += term
        terms_used = n + 1
        weight = weight * (base - n)
        if a == 0:
            if finite_support and n > nonzero_indices[-1]:
                return total, nonzero_indices[-1] + 1, 0.0, peak
            continue
        mag = abs(term)
        if mag > peak:
            peak = mag
        ratio = mag / last_mag if last_mag else mpmath.inf
        if mag == 0 or (mag <= tol * (abs(total) + 1) and ratio < 0.5):
            small_run += 1
        else:
            small_run = 0
        if mag > 0:
            last_mag = mag
        if small_run >= 3:
            r = 0.0 if mag == 0 else min(float(ratio), 0.5)
            tail = float(mag) * r / (1 - r) if r else 0.0
            return total, terms_used, tail, peak
    raise NonConvergenceError(
        f"series did not settle within {len(coeffs_mp)} coefficients"
    )


def eval_series(
    sol: SeriesSolution, z, tol: float = 1e-12, prec: int | None = None
) -> EvalResult:
    """Evaluate a series at a complex point.

    A nonzero offset rho contributes the prefactor ff(z, rho) (a gamma
    quotient, whose poles raise GammaPoleError) and shifts the falling-power
    base to z - rho.  Raises NonConvergenceError when the available
    coefficients do not reach the stopping rule.
    """
    bits = prec if prec is not None else working_precision()
    with mpmath.workprec(bits):
        rho = sol.rho_offset
        prefactor = mpmath.mpc(1)
        if rho != 0:
            prefactor = _to_mpc(falling_power_eval(z, rho, prec=bits))
        base = _to_mpc(z) - mpmath.mpf(rho.numerator) / rho.denominator
        total, used, tail, peak = _sum_series(
            _coeff_mpfs(sol), base, mpmath.mpf(tol), sol.support_modulus
        )
        try:
            value = complex(prefactor * total)
        except OverflowError as exc:
            raise EvaluationError("value exceeds the double range") from exc
        log_scale = float(mpmath.log(peak)) if peak > 0 else -math.inf
    return EvalResult(value=value, terms_used=used, tail_bound=tail, log_scale=log_scale)


def _log_max_modulus(sol, radius, samples, tol, bits) -> float:
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 8:
        raise ValueError("at least 8 circle samples are required")
    with mpmath.workprec(bits):
        coeffs_mp = _coeff_mpfs(sol)
        rho = sol.rho_offset
        rho_mp = mpmath.mpf(rho.numerator) / rho.denominator
        best = mpmath.mpf("-inf")
        for k in range(samples):
            angle = 2 * mpmath.pi * k / samples
            z = radius * mpmath.exp(mpmath.mpc(0, 1) * angle)
            prefactor = mpmath.mpc(1)
            if rho != 0:
                try:
                    prefactor = _falling_power_mp(z, rho)
                except GammaPoleError as exc:
                    raise EvaluationError(f"gamma pole on the circle at z={z}") from exc
            total, _, _, _ = _sum_series(
                coeffs_mp, z - rho_mp, mpmath.mpf(tol), sol.support_modulus
            )
            magnitude = abs(prefactor * total)
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
    range (log-domain fitting uses the internal log value instead).
    """
    bits = prec if prec is not None else working_precision()
    log_best = _log_max_modulus(sol, radius, samples, tol, bits)
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
    final radius.  Non-monotone max-modulus values are rejected.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("at least four radii are required")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    bits = prec if prec is not None else working_precision()
    logm = [_log_max_modulus(sol, r, samples, tol, bits) for r in radii]
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
