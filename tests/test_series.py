import math
import random
import sys
from fractions import Fraction

import pytest

from deltaorder import (
    SeriesSolution,
    construct_equation,
    derive_recurrence,
    estimate_chi,
    normalize_to_delta,
    parse_equation,
    shifted_recurrence,
    solve_series,
    verify_recurrence,
)
from deltaorder.errors import InconsistentSystemError, InsufficientDataError

from fixtures_equations import (
    CUBIC_THIRD,
    QUARTIC_34,
    deadline,
    fifth_order_stream,
    quartic_34_stream,
    random_equation,
    third_order_stream,
)


@pytest.fixture(scope="module")
def cubic_rec():
    return derive_recurrence(normalize_to_delta(parse_equation(CUBIC_THIRD)))


@pytest.fixture(scope="module")
def quartic_rec():
    return derive_recurrence(normalize_to_delta(parse_equation(QUARTIC_34)))


def test_solution_space_dimensions(cubic_rec, quartic_rec):
    assert len(solve_series(cubic_rec, 30)) == 3
    assert len(solve_series(quartic_rec, 30)) == 4


def test_pinned_solve_reproduces_third_order_stream(cubic_rec):
    stream = third_order_stream(200)
    sol = solve_series(
        cubic_rec, 200, initial={0: stream[0], 1: stream[1], 2: stream[2]}
    )[0]
    assert sol.coeffs == tuple(stream[:201])
    assert verify_recurrence(cubic_rec, sol, 190).exact


def test_quartic_solution_with_erased_low_freedom(quartic_rec):
    # pinning the early freedom to the predicted pattern forces the
    # arithmetic-progression support and the factorial decay
    stream = quartic_34_stream(240)
    sol = solve_series(
        quartic_rec,
        240,
        initial={0: Fraction(1), 1: Fraction(0), 2: Fraction(0), 3: Fraction(1, 24)},
    )[0]
    assert sol.coeffs == tuple(stream[:241])
    assert sol.support_modulus == 3
    for k in range(0, 60):
        lhs = sol.coeffs[3 * (k + 1)]
        rhs = sol.coeffs[3 * k] / ((4 * k + 1) * (4 * k + 2) * (4 * k + 3) * (4 * k + 4))
        assert lhs == rhs


def test_first_order_recurrence_gives_inverse_factorials():
    rec = derive_recurrence(normalize_to_delta(parse_equation("D f(z) - f(z) = 0")))
    sol = solve_series(rec, 120, initial={0: Fraction(1)})[0]
    assert all(sol.coeffs[n] == Fraction(1, math.factorial(n)) for n in range(121))
    est = estimate_chi(sol.coeffs)
    assert abs(est.chi_hat - 1.0) < 0.02


def test_pinned_cubic_at_3200_terms_finishes_in_time(cubic_rec):
    # pins absorbed at creation and the lead-only content cut: the per-row
    # full gcds once made this about 18 s
    initial = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 4)}
    with deadline(5):
        sol = solve_series(cubic_rec, 3200, initial=initial)[0]
    assert sol.coeffs[:3] == (1, 1, Fraction(1, 4))
    assert max(c.denominator.bit_length() for c in sol.coeffs) == 106188


def test_wide_coefficient_basis_finishes_in_time():
    # 1585-bit window entries: the output's full gcds once made this about 12 s
    rec = derive_recurrence(normalize_to_delta(parse_equation("3^1000 f(z+1) - f(z) = 0")))
    with deadline(5):
        (sol,) = solve_series(rec, 200)
    # f(z) = c^z with c = 3^-1000 has a_n = (c - 1)^n / n!
    step = Fraction(1, 3**1000) - 1
    assert all(sol.coeffs[n] == step**n / math.factorial(n) for n in (0, 1, 2, 57, 200))


def test_inconsistent_initial_data(cubic_rec):
    # row 0 reads 90 a_3 + 6 a_2 - a_1 - a_0 = 0, so these pins contradict
    with pytest.raises(InconsistentSystemError):
        solve_series(
            cubic_rec,
            30,
            initial={0: Fraction(1), 1: Fraction(0), 2: Fraction(0), 3: Fraction(1)},
        )


def test_pins_past_the_int_string_limit_solve_in_process(cubic_rec):
    # the provenance keeps the pins as Fractions: nothing converts a pin of
    # 5000 digits to a decimal string, at the interpreter's default limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        pin = Fraction(1, 10**5000)
        (sol,) = solve_series(cubic_rec, 5, initial={0: pin})
    finally:
        sys.set_int_max_str_digits(previous)
    assert sol.coeffs[0] == pin
    assert sol.provenance == {"pinned": {0: pin}}


def test_zero_dimensional_space_is_empty():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    rec = shifted_recurrence(eq, Fraction(1, 7))  # not an admissible offset
    assert solve_series(rec, 40) == []


def test_shifted_space_with_admissible_offset_is_one_dimensional():
    eq = normalize_to_delta(parse_equation(CUBIC_THIRD))
    rec = shifted_recurrence(eq, Fraction(3, 2))
    sols = solve_series(rec, 60)
    assert len(sols) == 1
    a = sols[0].coeffs
    rho = Fraction(3, 2)
    for n in range(40):
        denom = (n + rho + 1) * (2 * n + 2 * rho - 1) * (3 * n + 3 * rho - 1)
        assert a[n + 1] == a[n] / denom


def test_truncated_dimension_bound_random():
    rng = random.Random(51)
    for _ in range(40):
        eq = random_equation(rng, max_order=4, max_degree=3)
        rec = derive_recurrence(eq)
        count = rec.span + 25
        sols = solve_series(rec, count)
        assert len(sols) <= rec.span


def test_verify_detects_perturbation(quartic_rec):
    stream = quartic_34_stream(120)
    stream[3] += Fraction(1, 7)
    sol = SeriesSolution.from_values(stream)
    report = verify_recurrence(quartic_rec, sol, 100)
    assert not report.exact
    assert report.first_failing_row == 0
    assert report.max_residual > 0


def test_verify_detects_the_support_from_the_coefficients_not_the_field():
    # a value off q*N breaks the 3/4 prediction's rows; a field claiming
    # support on 3*N must not hide the entries that read it
    built = construct_equation(3, 4)
    rec = derive_recurrence(built.canonical)
    coeffs = list(built.predicted_series.coeffs)
    coeffs[4] = Fraction(1, 5)
    sol = SeriesSolution(rho_offset=Fraction(0), coeffs=tuple(coeffs), support_modulus=3)
    assert verify_recurrence(rec, built.predicted_series, 100).exact
    report = verify_recurrence(rec, sol, 100)
    assert not report.exact and report.max_residual > 0


def test_pin_rejects_a_negative_index(cubic_rec):
    # Python's negative indexing would otherwise pin the last coefficient
    with pytest.raises(ValueError, match="pinned index -1 is negative") as excinfo:
        solve_series(cubic_rec, 20, initial={0: 1, -1: 1})
    assert excinfo.type is ValueError
    with pytest.raises(InsufficientDataError):
        solve_series(cubic_rec, 20, initial={21: 1})
    assert solve_series(cubic_rec, 20, initial={20: 1})[0].coeffs[20] == 1


def test_verify_zero_stream(quartic_rec):
    sol = SeriesSolution.from_values([0] * 130)
    report = verify_recurrence(quartic_rec, sol, 100)
    assert report.exact
    assert report.max_residual == 0


def test_verify_needs_enough_coefficients(quartic_rec):
    sol = SeriesSolution.from_values(quartic_34_stream(20))
    with pytest.raises(InsufficientDataError):
        verify_recurrence(quartic_rec, sol, 100)


def test_support_modulus_detection():
    assert SeriesSolution.from_values(quartic_34_stream(30)).support_modulus == 3
    assert SeriesSolution.from_values([1, 1, 1]).support_modulus is None
    assert SeriesSolution.from_values([1, 0, 1, 0, 1]).support_modulus == 2


def _integer_root(n: int, k: int) -> int:
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def test_estimate_chi_factorial_powers():
    # a_n = (n!)^(-1/lam); exact rationals via integer roots avoid underflow
    for lam in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
        p, q = (1 / lam).numerator, (1 / lam).denominator
        coeffs = [
            Fraction(1, _integer_root(math.factorial(n) ** p, q)) for n in range(601)
        ]
        est = estimate_chi(coeffs)
        assert abs(est.chi_hat - float(lam)) < 0.01
        assert est.converged


def test_estimate_chi_on_fixture_streams():
    assert abs(estimate_chi(third_order_stream(500)).chi_hat - 1 / 3) < 0.01
    assert abs(estimate_chi(quartic_34_stream(600)).chi_hat - 3 / 4) < 0.01
    assert abs(estimate_chi(fifth_order_stream(500)).chi_hat - 1 / 5) < 0.01


def test_estimate_chi_needs_enough_terms():
    with pytest.raises(InsufficientDataError):
        estimate_chi([Fraction(1, n + 1) for n in range(40)])


def test_estimate_chi_nondecaying_sentinel():
    est = estimate_chi([Fraction(1)] * 200)
    assert est.chi_hat == math.inf
    assert not est.converged
