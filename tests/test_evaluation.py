import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    SeriesSolution,
    empirical_order,
    estimate_chi,
    eval_series,
    falling_factorial,
    max_modulus,
    normalize_to_delta,
    parse_equation,
)
from deltaorder.cli import main
from deltaorder.errors import (
    ConfigurationError,
    EvaluationError,
    GammaPoleError,
    NonConvergenceError,
)
from deltaorder.evaluation import MAX_SAMPLES
from deltaorder.polynomials import _falling_power_mp, falling_power_eval

from fixtures_equations import CUBIC_THIRD, quartic_34_stream, third_order_stream


@pytest.fixture(scope="module")
def cubic_solution():
    return SeriesSolution.from_values(third_order_stream(400))


def test_value_at_zero_is_first_coefficient(cubic_solution):
    assert eval_series(cubic_solution, 0).value == 1 + 0j


def test_integer_points_match_exact_finite_sums(cubic_solution):
    for k in range(7):
        exact = sum(
            cubic_solution.coeffs[n] * falling_factorial(k, n) for n in range(k + 1)
        )
        got = eval_series(cubic_solution, k).value
        assert got == complex(float(exact))


def test_matches_brute_force_summation_oracle(cubic_solution):
    result = eval_series(cubic_solution, 2.5)
    with mpmath.workprec(220):
        total = mpmath.mpf(0)
        weight = mpmath.mpf(1)
        z = mpmath.mpf("2.5")
        for n, a in enumerate(cubic_solution.coeffs[:2000] if len(cubic_solution.coeffs) > 2000 else cubic_solution.coeffs):
            total += (mpmath.mpf(a.numerator) / a.denominator) * weight
            weight *= z - n
        oracle = complex(total)
    assert abs(result.value - oracle) / abs(oracle) < 1e-9
    assert result.terms_used >= 1
    assert result.tail_bound < 1e-9


def test_zero_series_evaluates_to_zero():
    sol = SeriesSolution.from_values([0] * 50)
    assert eval_series(sol, 3.3).value == 0j


def test_nonconvergence_with_too_few_coefficients():
    sol = SeriesSolution.from_values(third_order_stream(4))
    with pytest.raises(NonConvergenceError):
        eval_series(sol, 50.0)


def test_offset_prefactor_and_pole(cubic_solution):
    shifted = SeriesSolution.from_values(
        cubic_solution.coeffs[:80], rho=Fraction(3, 2)
    )
    value = eval_series(shifted, 2.5).value
    assert value != 0
    with pytest.raises(GammaPoleError):
        eval_series(shifted, -1)


def test_max_modulus_constant_series():
    sol = SeriesSolution.from_values([1] + [0] * 20)
    for radius in (1.0, 10.0, 250.0):
        assert max_modulus(sol, radius) == pytest.approx(1.0, rel=1e-12)


def test_max_modulus_linear_series():
    sol = SeriesSolution.from_values([0, 1] + [0] * 20)
    for radius in (2.0, 30.0, 500.0):
        assert max_modulus(sol, radius) == pytest.approx(radius, rel=1e-9)


def test_max_modulus_monotone_for_entire_solution(cubic_solution):
    values = [max_modulus(cubic_solution, r) for r in (10, 50, 100, 200)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_max_modulus_argument_validation(cubic_solution):
    with pytest.raises(ValueError):
        max_modulus(cubic_solution, -3.0)
    with pytest.raises(ValueError):
        max_modulus(cubic_solution, 10.0, samples=4)


def test_empirical_order_cubic(cubic_solution):
    fit = empirical_order(cubic_solution, [50, 100, 200, 400, 800])
    assert abs(fit.rho_hat - 1 / 3) < 0.1
    assert fit.scale_hat > 0
    assert all(b > a for a, b in zip(fit.log_max_modulus, fit.log_max_modulus[1:]))


def test_empirical_order_quartic():
    sol = SeriesSolution.from_values(quartic_34_stream(1800))
    fit = empirical_order(sol, [50, 100, 200, 400, 800])
    assert abs(fit.rho_hat - 3 / 4) < 0.1


def test_empirical_order_needs_increasing_radii(cubic_solution):
    with pytest.raises(ValueError):
        empirical_order(cubic_solution, [100, 50, 200, 400])
    with pytest.raises(ValueError):
        empirical_order(cubic_solution, [50, 100, 200])


def test_empirical_order_flags_flat_modulus():
    sol = SeriesSolution.from_values([1] + [0] * 30)
    with pytest.raises(EvaluationError):
        empirical_order(sol, [10, 20, 40, 80])


def test_growth_triangle_consistency(cubic_solution):
    # coefficient decay, max-modulus growth, and the degree analysis all
    # point at the same order for the cubic fixture
    from deltaorder import analyze

    analysis = analyze(normalize_to_delta(parse_equation(CUBIC_THIRD)))
    target = float(analysis.orders[0].rho)
    chi = estimate_chi(cubic_solution.coeffs).chi_hat
    rho_hat = empirical_order(cubic_solution, [50, 100, 200, 400, 800]).rho_hat
    assert abs(chi - target) < 0.01
    assert abs(rho_hat - target) < 0.1


def test_working_precision_env(monkeypatch):
    from deltaorder import working_precision

    monkeypatch.delenv("DELTAORDER_PRECISION", raising=False)
    assert working_precision() == 128
    monkeypatch.setenv("DELTAORDER_PRECISION", "256")
    assert working_precision() == 256
    monkeypatch.setenv("DELTAORDER_PRECISION", "8")
    assert working_precision() == 53  # floored at double precision
    monkeypatch.setenv("DELTAORDER_PRECISION", "garbage")
    with pytest.raises(ConfigurationError):
        working_precision()


def test_linear_independence_sample_of_offset_solutions():
    # the three distinguished solutions (offsets 0, 3/2, 4/3) are numerically
    # independent at sample points; this checks independence, not a proof
    import numpy as np

    from deltaorder import shifted_recurrence, solve_series

    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    streams = []
    for rho in (Fraction(0), Fraction(3, 2), Fraction(4, 3)):
        rec = shifted_recurrence(eq, rho)
        sols = solve_series(rec, 120)
        if rho == 0:
            stream = solve_series(
                rec,
                120,
                initial={0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 4)},
            )[0]
        else:
            stream = sols[0]
        streams.append(stream)
    points = [2.3, 3.7, 5.1]
    matrix = np.array(
        [[eval_series(s, z).value for z in points] for s in streams]
    )
    assert abs(np.linalg.det(matrix)) > 1e-9


def test_max_modulus_reports_a_pole_on_the_circle():
    # at z = -1 the prefactor's z+1 is 0, a pole of the gamma quotient
    sol = SeriesSolution.from_values([1] + [0] * 20, rho=Fraction(5, 2))
    with pytest.raises(EvaluationError):
        max_modulus(sol, 1.0, samples=8)


def test_non_finite_inputs_are_rejected_by_name(cubic_solution):
    for z in (math.nan, complex(1, math.inf), -math.inf):
        with pytest.raises(ValueError, match="z must be finite"):
            eval_series(cubic_solution, z)
    for tol in (0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be"):
            eval_series(cubic_solution, 2.5, tol=tol)
        with pytest.raises(ValueError, match="tol must be"):
            max_modulus(cubic_solution, 10.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be"):
            empirical_order(cubic_solution, [50, 100, 200, 400], tol=tol)
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be finite"):
            max_modulus(cubic_solution, radius)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radii entries must be finite"):
            empirical_order(cubic_solution, [50, 100, bad, 400])


def test_samples_above_the_bound_are_rejected_before_sampling():
    # a stream that could not be summed on any circle: sampling would raise NonConvergenceError
    sol = SeriesSolution.from_values(third_order_stream(4))
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
        max_modulus(sol, 50.0, samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
        empirical_order(sol, [50, 100, 200, 400], samples=10**9)


# --- the mpc-object summation loop the libmp kernel replaced, verbatim, as its oracle ---


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


def _to_mpc(value) -> mpmath.mpc:
    c = complex(value)
    return mpmath.mpc(c.real, c.imag)


def oracle_eval(sol, z, tol=1e-12, prec=128):
    with mpmath.workprec(prec):
        rho = sol.rho_offset
        prefactor = mpmath.mpc(1)
        if rho != 0:
            prefactor = _to_mpc(falling_power_eval(z, rho, prec=prec))
        base = _to_mpc(z) - mpmath.mpf(rho.numerator) / rho.denominator
        total, used, tail, peak = _sum_series(
            _coeff_mpfs(sol), base, mpmath.mpf(tol), sol.support_modulus
        )
        value = complex(prefactor * total)
        log_scale = float(mpmath.log(peak)) if peak > 0 else -math.inf
    return (value, used, tail, log_scale)


def oracle_max_modulus(sol, radius, samples, prec=128):
    """The maximum over every one of the samples circle points."""
    with mpmath.workprec(prec):
        coeffs_mp = _coeff_mpfs(sol)
        rho = sol.rho_offset
        rho_mp = mpmath.mpf(rho.numerator) / rho.denominator
        best = mpmath.mpf("-inf")
        for k in range(samples):
            z = radius * mpmath.exp(mpmath.mpc(0, 1) * (2 * mpmath.pi * k / samples))
            if 2 * k == samples:
                z = mpmath.mpc(-radius, 0)  # exp(i pi) of a rounded pi is not real
            prefactor = mpmath.mpc(1)
            if rho != 0:
                try:
                    prefactor = _falling_power_mp(z, rho)
                except GammaPoleError as exc:
                    raise EvaluationError(f"gamma pole on the circle at z={z}") from exc
            total = _sum_series(coeffs_mp, z - rho_mp, mpmath.mpf(1e-12), sol.support_modulus)[0]
            magnitude = abs(prefactor * total)
            if magnitude > 0:
                best = max(best, mpmath.log(magnitude))
        return math.exp(float(best))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (NonConvergenceError, GammaPoleError, EvaluationError) as exc:
        return type(exc).__name__


def _fields(result):
    if isinstance(result, str):
        return result
    return (result.value, result.terms_used, result.tail_bound, result.log_scale)


OFFSETS = (Fraction(0), Fraction(3, 2), Fraction(7, 3))


@st.composite
def streams(draw):
    """Dense, sparse (support modulus 2-4), finitely supported and all-zero streams."""
    kind = draw(st.sampled_from(("dense", "sparse", "finite", "zero")))
    count = draw(st.integers(4, 90))
    # 1/n!^2 decays past the factorial growth of the falling powers; 1/n! only sometimes
    power = draw(st.sampled_from((1, 2, 2)))
    step = draw(st.integers(2, 4)) if kind == "sparse" else 1
    stop = draw(st.integers(1, max(1, count - 4))) if kind == "finite" else count
    coeffs = []
    for n in range(count):
        if kind == "zero" or n % step or n >= stop:
            coeffs.append(Fraction(0))
            continue
        # numerators past 200 bits are rounded before the division, as mpf(num) / den does
        num = draw(st.one_of(st.integers(-40, 40), st.integers(-(2**260), 2**260)))
        den = draw(st.integers(1, 12))
        coeffs.append(Fraction(num, den * math.factorial(n) ** power))
    return SeriesSolution.from_values(coeffs, rho=draw(st.sampled_from(OFFSETS)))


def _off_poles(sol, z) -> bool:
    # ff(z, rho) has its poles where z + 1 or z + 1 - rho is a non-positive integer
    if z.imag != 0 or sol.rho_offset == 0:
        return True
    return all(
        not (p <= 0 and p == int(p)) for p in (z.real + 1, z.real + 1 - float(sol.rho_offset))
    )


@settings(max_examples=150, deadline=None)
@given(
    sol=streams(),
    re=st.floats(-25, 25),
    im=st.sampled_from((0.0, 0.0, 0.75, -3.5, 11.25)),
    tol=st.sampled_from((1e-12, 1e-12, 1e-6, 1e-20)),
    prec=st.sampled_from((53, 128, 200)),
)
def test_eval_series_matches_the_mpc_loop_bit_for_bit(sol, re, im, tol, prec):
    z = complex(re, im)
    if not _off_poles(sol, z):
        return
    got = _outcome(eval_series, sol, z, tol=tol, prec=prec)
    want = _outcome(oracle_eval, sol, z, tol=tol, prec=prec)
    assert _fields(got) == want


@pytest.mark.parametrize("samples", (8, 9, 33, 64))
def test_max_modulus_equals_the_full_circle_on_fixtures(cubic_solution, samples):
    quartic = SeriesSolution.from_values(quartic_34_stream(600))
    shifted = SeriesSolution.from_values(cubic_solution.coeffs[:120], rho=Fraction(3, 2))
    cases = ((cubic_solution, 20.0), (cubic_solution, 110.0), (quartic, 60.0), (shifted, 30.0))
    for sol, radius in cases:
        got = _outcome(max_modulus, sol, radius, samples=samples)
        assert got == _outcome(oracle_max_modulus, sol, radius, samples)
    # z = -30 is a pole of Gamma(z + 1), sampled exactly when the count is even
    assert (got == "EvaluationError") == (samples % 2 == 0)


@settings(max_examples=40, deadline=None)
@given(
    sol=streams(),
    radius=st.floats(0.5, 6),
    samples=st.sampled_from((8, 9, 33, 64)),
    prec=st.sampled_from((53, 128, 200)),
)
def test_max_modulus_matches_the_full_circle_on_draws(sol, radius, samples, prec):
    got = _outcome(max_modulus, sol, radius, samples=samples, prec=prec)
    want = _outcome(oracle_max_modulus, sol, radius, samples, prec=prec)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


# --- CLI eval output recorded before the libmp kernel, compared byte for byte ---

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize(
    "radii, golden", (("50,100,200,400,800", "eval-radii-growth"), ("110", "eval-radii-110"))
)
def test_cli_eval_radii_matches_recorded_output(tmp_path, capsys, radii, golden):
    stream = tmp_path / "stream.json"
    argv = ["solve", CUBIC_THIRD, "--terms", "200", "--initial", "0=1,1=1,2=1/4"]
    assert main(argv) == 0
    stream.write_text(capsys.readouterr().out, encoding="utf-8")
    assert json.loads(stream.read_text(encoding="utf-8"))["command"] == "solve"
    assert main(["eval", "--solution", str(stream), "--radii", radii]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN_DIR / f"{golden}.json").read_text(encoding="utf-8")
