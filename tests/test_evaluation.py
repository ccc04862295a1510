from fractions import Fraction

import mpmath
import pytest

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
from deltaorder.errors import (
    ConfigurationError,
    EvaluationError,
    GammaPoleError,
    NonConvergenceError,
)

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
    # at z = 1/2 the prefactor's z+1-rho is -1, a pole of the gamma quotient
    sol = SeriesSolution.from_values([1] + [0] * 20, rho=Fraction(5, 2))
    with pytest.raises(EvaluationError):
        max_modulus(sol, 0.5, samples=8)
