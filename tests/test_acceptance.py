"""End-to-end acceptance checks with stated tolerances and time budgets.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
immediately; a failing criterion also fails its test).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from deltaorder import (
    SeriesSolution,
    adams_polygon,
    analyze,
    compose_operators,
    construct_equation,
    derive_recurrence,
    empirical_order,
    estimate_chi,
    indicial_exponents,
    normalize_to_delta,
    parse_equation,
    roundtrip_check,
    sub_one_branches,
    Poly,
)
from deltaorder.polynomials import _integer_falling_basis, _newton_poly

from fixtures_equations import (
    CUBIC_THIRD,
    L3_TEXT,
    L5_TEXT,
    L8_COEFFS,
    QUARTIC_34,
    falling_power,
    falling_product_sum,
    fifth_order_stream,
    prod_poly,
    pure_shift_form,
    quartic_34_stream,
    random_equation,
    random_poly,
    third_order_stream,
)

_RESULTS = []


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:  # noqa: BLE001 - report, then re-raise
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < budget_seconds else "FAIL"
        line = (
            f"ACCEPTANCE {number:02d} [{status}] {description} "
            f"({elapsed:.2f}s / budget {budget_seconds:.0f}s)"
        )
        _RESULTS.append(line)
        print(line)
    assert elapsed < budget_seconds, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_cubic_analysis():
    with criterion(1, "third-order fixture: p=2, s=(3,0), orders {1/3 x1}", 1.0):
        analysis = analyze(normalize_to_delta(parse_equation(CUBIC_THIRD)))
        assert analysis.p == 2
        assert analysis.s_seq == (3, 0)
        assert [(e.rho, e.max_count) for e in analysis.orders] == [(Fraction(1, 3), 1)]


def test_criterion_02_quartic_analysis_window_polygon():
    with criterion(2, "quartic fixture: s=(4,0), window displays, polygon", 1.0):
        eq = normalize_to_delta(parse_equation(QUARTIC_34))
        analysis = analyze(eq)
        assert analysis.s_seq == (4, 0)
        assert [(e.rho, e.max_count) for e in analysis.orders] == [(Fraction(3, 4), 3)]
        rec = derive_recurrence(eq)
        expected = {
            -4: prod_poly([1, 1], [2, 1], [3, 1], [4, 1], [5, 2], [7, 4], [13, 4]) * 8,
            -3: prod_poly([1, 1], [2, 1], [3, 1], [3, 2], [3, 4], [9, 4]) * 24,
            -2: prod_poly([1, 1], [2, 1], [1, 2], [-1, 4], [5, 4]) * 24,
            -1: prod_poly([1, 1], [-446, -357, -465, 256]),
            0: prod_poly([1, 1], [2, 1]) * -243,
            1: Poly([1, 1]) * -243,
            2: Poly([-81]),
        }
        for index, poly in expected.items():
            assert rec.window[index] == poly
        polygon = adams_polygon(rec)
        assert polygon.points == (
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (6, 7)
        )
        steep = [s for s in polygon.segments if s.slope == Fraction(4, 3)]
        assert len(steep) == 1
        assert (steep[0].start, steep[0].end) == ((3, 3), (6, 7))


def test_criterion_03_composition_and_analysis():
    with criterion(3, "operator composition: exact ninth-order display", 5.0):
        composed = compose_operators(
            normalize_to_delta(parse_equation(L3_TEXT)),
            normalize_to_delta(parse_equation(L5_TEXT)),
        )
        for power, coeffs in enumerate(L8_COEFFS):
            assert composed.coeffs[power] == Poly(coeffs)
        analysis = analyze(composed)
        assert analysis.s_seq == (8, 5, 0)
        assert [(e.rho, e.max_count) for e in analysis.orders] == [
            (Fraction(1, 3), 1),
            (Fraction(1, 5), 1),
        ]
        assert analysis.total_bound == 2


def test_criterion_04_coefficient_stream_decay():
    with criterion(4, "stream decay: chi within 0.01 of 1/3, 3/4, 1/5", 10.0):
        assert abs(estimate_chi(third_order_stream(500)).chi_hat - 1 / 3) < 0.01
        assert abs(estimate_chi(quartic_34_stream(600)).chi_hat - 3 / 4) < 0.01
        assert abs(estimate_chi(fifth_order_stream(500)).chi_hat - 1 / 5) < 0.01


def test_criterion_05_constructor_round_trip():
    with criterion(5, "constructor round trip for all coprime q/p, p<=6", 60.0):
        pairs = [
            (q, p) for p in range(2, 7) for q in range(1, p) if math.gcd(q, p) == 1
        ]
        for q, p in pairs:
            result = construct_equation(q, p)
            report = roundtrip_check(result)
            assert report.ok, (q, p, report.stages)
            assert abs(report.chi_hat - q / p) < 0.01, (q, p, report.chi_hat)


def test_criterion_06_newton_adams_consistency():
    with criterion(6, "vertex chain equals polygon branches on 200 randoms", 120.0):
        rng = random.Random(60)
        for _ in range(200):
            eq = random_equation(rng, max_order=6, max_degree=5)
            analysis = analyze(eq)
            polygon = adams_polygon(derive_recurrence(eq))
            assert sub_one_branches(polygon) == [
                (e.rho, e.max_count) for e in analysis.orders
            ]


def test_criterion_07_negative_verdicts_and_zero_order():
    with criterion(7, "negative verdicts; order zero never emitted", 10.0):
        for text in ("z D f(z) + (z - 1) f(z) = 0", "D f(z) - f(z) = 0"):
            analysis = analyze(normalize_to_delta(parse_equation(text)))
            assert analysis.p == 1
            assert not analysis.exists_sub1
            assert analysis.orders == ()
        rng = random.Random(61)
        for _ in range(200):
            analysis = analyze(random_equation(rng))
            assert all(e.rho > 0 for e in analysis.orders)


def test_criterion_08_indicial_exponents():
    with criterion(8, "indicial exponents {0, 1, 2, 4/3, 3/2} exact", 5.0):
        roots = indicial_exponents(normalize_to_delta(parse_equation(CUBIC_THIRD)))
        assert sorted(roots) == [
            Fraction(0),
            Fraction(1),
            Fraction(4, 3),
            Fraction(3, 2),
            Fraction(2),
        ]
        assert all(isinstance(r, Fraction) for r in roots)


def test_criterion_09_empirical_growth():
    with criterion(9, "empirical slopes within 0.1 of 1/3 and 3/4", 120.0):
        cubic = SeriesSolution.from_values(third_order_stream(400))
        fit = empirical_order(cubic, [50, 100, 200, 400, 800])
        assert abs(fit.rho_hat - 1 / 3) < 0.1, fit.rho_hat
        quartic = SeriesSolution.from_values(quartic_34_stream(1800))
        fit = empirical_order(quartic, [50, 100, 200, 400, 800])
        assert abs(fit.rho_hat - 3 / 4) < 0.1, fit.rho_hat


def test_criterion_10_product_identity_and_round_trips():
    with criterion(10, "product identity 1e-9; basis/shift round trips exact", 60.0):
        rng = random.Random(62)
        for _ in range(100):
            m = rng.randint(0, 6)
            rho = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if rho.denominator == 1 and rho <= 0:
                rho += Fraction(1, 3)
            for _ in range(5):
                z = complex(rng.uniform(1, 8), rng.uniform(-3, 3))
                direct = falling_power(z, m) * falling_power(z, rho)
                expanded = falling_product_sum(z, m, rho)
                scale = max(abs(direct), 1e-30)
                assert abs(expanded - direct) / scale < 1e-9
        for _ in range(100):
            p = random_poly(rng, 8)
            basis = _integer_falling_basis(p)
            assert (_newton_poly(1, basis, 1, range(8)) if basis else Poly()) == p
        from deltaorder import DifferenceEquation

        for _ in range(100):
            coeffs = [random_poly(rng, 4) for _ in range(rng.randint(1, 5))]
            coeffs.append(random_poly(rng, 4, allow_zero=False))
            eq = DifferenceEquation(coeffs)
            assert normalize_to_delta(pure_shift_form(eq)) == eq


def test_zz_print_summary():
    print()
    for line in _RESULTS:
        print(line)
    assert len(_RESULTS) == 10
