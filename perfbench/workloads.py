"""The in-process workloads: analyze-sweep, solve-stream, construct-roundtrip, eval-growth.

Each workload turns the seed into a list of rounds.  A round is a list of
jobs whose structure (equation families, truncations, orders, operation
kinds) is the same in every round and for every seed; the seed draws the
free parameters inside that structure (random coefficients, pins, points,
radii, job order).  Keeping the structure fixed keeps the cost of a round
nearly seed independent, so runs with different seeds agree; drawing fresh
parameters per round keeps a memoizing change from looking like a speed-up.

Every job calls the public deltaorder API through ``Probe.call`` and checks
each output against an oracle that does not come from the same code path.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

import mpmath

import deltaorder as do
from harness import BIG_FRACTIONS, Probe, check, fit_exponent, normalised_call

ROUNDS_AHEAD = 16  # rounds generated during set-up; the loop cycles if it needs more

# Equation texts shared with the test suite (tests/fixtures_equations.py), copied
# so that the benchmark's inputs cannot change when the tests do.
CUBIC = "(6z^2 + 19z + 15) D^3 f(z) + (z + 3) D^2 f(z) - D f(z) - f(z) = 0"
QUARTIC_34 = (
    "(256z^3 + 1920z^2 + 4656z + 3640) D^4 y(z) + (384z^2 + 1760z + 1944) D^3 y(z)"
    " - (80z + 120) D^2 y(z) - (81z^2 + 405z + 446) D y(z)"
    " - (81z^2 + 405z + 486) y(z) = 0"
)
QUARTIC_34_SHIFTED = (
    "256z(z - 1)(z - 2) D^4 y(z - 3) + 384z(z - 1) D^3 y(z - 2)"
    " - 80z D^2 y(z - 1) + 40 D y(z) - 81z(z - 1) y(z - 2) = 0"
)
HALF_ORDER = "(4z + 6) D^2 f(z) + 3 D f(z) + f(z) = 0"
L3_TEXT = (
    "(6z^5 + 37z^4 + 84z^3 + 83z^2 + 30z) D^3 f(z)"
    " - (17z^4 + 68z^3 + 87z^2 + 36z) D^2 f(z)"
    " + (33z^3 + 97z^2 + 66z) D f(z) - (z^3 + 39z^2 + 108z + 72) f(z) = 0"
)
L5_TEXT = (
    "(36z^4 + 588z^3 + 3583z^2 + 9653z + 9702) D^5 f(z)"
    " + (228z^3 + 2594z^2 + 9806z + 12319) D^4 f(z)"
    " + (271z^2 + 1981z + 3596) D^3 f(z) + (28z + 114) D^2 f(z)"
    " - 2 D f(z) - f(z) = 0"
)
README_PINS = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 4)}
README_VALUE_AT_2_5 = 4.4478842409913515
CUBIC_INDICIAL = [Fraction(0), Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2)]


@dataclass(frozen=True)
class Job:
    label: str
    kind: str
    args: tuple = ()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _shuffled(rng: random.Random, jobs: list[Job]) -> list[Job]:
    """The jobs in seeded order."""
    rng.shuffle(jobs)
    return jobs


def poly_text(coeffs) -> str:
    """Integer coefficients (ascending powers) as parser input, highest power first."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else "z" if k == 1 else f"z^{k}"
        body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
        terms.append(("-" if c < 0 else "+", body))
    sign, body = terms[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def equation_text(polys) -> str:
    """``polys[j]`` multiplies D^j f(z); empty lists are left out."""
    terms = []
    for j, coeffs in enumerate(polys):
        if not any(coeffs):
            continue
        op = "" if j == 0 else "D " if j == 1 else f"D^{j} "
        terms.append(f"({poly_text(coeffs)}) {op}f(z)")
    return " + ".join(terms) + " = 0"


def _ff(x: Fraction, length: int) -> Fraction:
    out = Fraction(1)
    for k in range(length):
        out *= x - k
    return out


def _poly_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _count_window_terms(probe: Probe, rec):
    if probe.tracing:
        probe.count(
            "recurrences.window_terms",
            sum(1 for q in rec.window.values() for c in q.coeffs if c != 0),
        )


# --- analyze-sweep ---------------------------------------------------------------


class AnalyzeSweep:
    """The analyze pipeline, once per operation, on seeded and scaling-family equations."""

    name = "analyze-sweep"
    why = (
        "parse to indicial roots on random and growing equations; time sits in "
        "recurrences (window entries, the divisor root search), none in series or evaluation"
    )
    deadline_s = 20.0
    min_rounds = 4
    ladders = ("recurrences.derive_recurrence.d_exponent", "recurrences.indicial_exponents.m_exponent")

    RANDOM_PER_ORDER = 3
    MAX_ORDER = 8
    # m + deg P_m is the degree of the indicial polynomial.  Above 14 a single
    # random draw can take seconds in the divisor search (ROADMAP item 3) and a
    # handful of such draws decide a run; the families below carry that growth
    # on fixed sizes instead.
    MAX_INDICIAL_DEGREE = 14
    D_FAMILY = (5, 10, 15, 20, 25, 30)
    M_FAMILY = (2, 4, 6, 8, 10, 12, 14, 16)
    C_BITS = (10, 16, 22, 28, 31, 34)

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[Job]] = []
        self.quartic = None

    def make_rounds(self) -> list[list[Job]]:
        rng = _rng(self.name, self.seed)
        return [self._round(rng) for _ in range(ROUNDS_AHEAD)]

    def setup(self, probe: Probe):
        self.rounds = self.make_rounds()
        self.quartic = do.normalize_to_delta(do.parse_equation(QUARTIC_34))
        self.run(Job("warm-up cubic", "readme-cubic", (CUBIC,)), probe)

    def _random_equation(self, rng: random.Random, order: int, replicate: int):
        """Coefficients in [-9, 9] drawn by the seed on a fixed degree plan.

        The plan, not the seed, sets which P_j vanish and every degree, so an
        equation costs about the same for every seed and round.
        """
        polys = []
        for j in range(order + 1):
            if j == order:
                degree = min(10, self.MAX_INDICIAL_DEGREE - order) - replicate % 3
            elif (j + replicate) % 7 == 3:
                polys.append([])
                continue
            else:
                degree = (3 * j + 5 * replicate + order) % 11
            coeffs = [rng.randint(-9, 9) for _ in range(degree)]
            coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
            polys.append(coeffs)
        return polys

    def _c_value(self, rng: random.Random, bits: int) -> int:
        # 2c - 3 prime fixes the length of the divisor loop for the root
        # (2c - 3)/c, so the cost depends on the size of c and not on the draw.
        while True:
            c = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            if _is_prime(2 * c - 3):
                return c

    def _round(self, rng: random.Random) -> list[Job]:
        jobs = []
        for order in range(1, self.MAX_ORDER + 1):
            for replicate in range(self.RANDOM_PER_ORDER):
                polys = self._random_equation(rng, order, replicate)
                jobs.append(
                    Job(f"random m={order}", "random", (equation_text(polys), order, polys[-1]))
                )
        for d in self.D_FAMILY:
            jobs.append(Job(f"z^{d} D f + f", "d-family", (f"z^{d} D f(z) + f(z) = 0", d)))
        for m in self.M_FAMILY:
            text = f"D^{m} f(z) + z^{m - 1} f(z) = 0"
            jobs.append(Job(f"D^{m} f + z^{m - 1} f", "m-family", (text, m)))
        for bits in self.C_BITS:
            c = self._c_value(rng, bits)
            text = f"({c}z + 3) D^2 f(z) + z f(z) = 0"
            jobs.append(Job(f"c of {bits} bits", "c-family", (text, c)))
        jobs.append(Job("README cubic", "readme-cubic", (CUBIC,)))
        jobs.append(Job("QUARTIC_34 shifted", "quartic-shifted", (QUARTIC_34_SHIFTED,)))
        return _shuffled(rng, jobs)

    def run(self, job: Job, probe: Probe):
        text = job.args[0]
        general = probe.call("parsing.parse_equation", do.parse_equation, text)
        eq = probe.call("equations.normalize_to_delta", do.normalize_to_delta, general)
        analysis = probe.call("newton.analyze", do.analyze, eq)
        rec = probe.call("recurrences.derive_recurrence", do.derive_recurrence, eq)
        _count_window_terms(probe, rec)
        polygon = probe.call("recurrences.adams_polygon", do.adams_polygon, rec)
        branches = probe.call("recurrences.sub_one_branches", do.sub_one_branches, polygon)
        exponents = probe.call("recurrences.indicial_exponents", do.indicial_exponents, eq)

        orders = sorted((e.rho, e.max_count) for e in analysis.orders)
        check(
            orders == sorted(branches),
            f"vertex-chain orders {orders} differ from polygon branches {branches}",
        )
        rational = [r for r in exponents if isinstance(r, Fraction)]
        kind = job.kind
        if kind == "random":
            _, order, top = job.args
            check(
                len(exponents) == order + len(top) - 1,
                f"{len(exponents)} indicial exponents for degree {order + len(top) - 1}",
            )
            # the indicial polynomial is ff(r, m) * P_m(r - m)
            for r in rational:
                check(
                    _ff(r, order) * _poly_value(top, r - order) == 0,
                    f"indicial exponent {r} is not a root",
                )
        elif kind == "d-family":
            d = job.args[1]
            check(not orders, f"z^{d} D f + f has orders {orders}")
            check(rational == [0] + [1] * d, f"indicial exponents {rational}")
        elif kind == "m-family":
            m = job.args[1]
            check(not orders, f"D^{m} f + z^{m - 1} f has orders {orders}")
            check(rational == list(range(m)), f"indicial exponents {rational}")
        elif kind == "c-family":
            c = job.args[1]
            check(not orders, f"c-family orders {orders}")
            check(rational == [0, 1, Fraction(2 * c - 3, c)], f"indicial exponents {rational}")
        elif kind == "readme-cubic":
            check(analysis.s_seq == (3, 0), f"s_sequence {analysis.s_seq}")
            check(orders == [(Fraction(1, 3), 1)], f"orders {orders}")
            check(exponents == CUBIC_INDICIAL, f"indicial exponents {exponents}")
        elif kind == "quartic-shifted":
            check(eq == self.quartic, "recentering did not recover QUARTIC_34")
            check(orders == [(Fraction(3, 4), 3)], f"orders {orders}")


# --- solve-stream ----------------------------------------------------------------


SOLVE_EQUATIONS = {
    # name: (text, order, chi values of the polygon's segments)
    "cubic": (CUBIC, 3, (1.0, 1 / 3)),
    "quartic34": (QUARTIC_34, 4, (1.0, 3 / 4)),
    "half": (HALF_ORDER, 2, (1.0, 1 / 2)),
    "L5": (L5_TEXT, 5, (1.0, 1 / 5)),
}
CHI_TOLERANCE = 0.02
# Every job of a round: (equation, mode, base truncation N), cheapest first.
# "rho3/2" is the basis solve of the cubic at falling-power offset 3/2.  A
# round's eleven jobs differ in cost by 1.2x or more around the sixth and the
# eighth, where the median and p66 of three or four rounds fall, so each of
# the two always lands inside one job's samples, never between two jobs.
SOLVE_PLAN = (
    ("half", "pinned", 200),
    ("cubic", "pinned", 200),
    ("cubic", "rho3/2", 400),
    ("half", "basis", 400),
    ("cubic", "pinned", 300),
    ("half", "basis", 600),
    ("quartic34", "basis", 200),
    ("quartic34", "pinned", 400),
    ("L5", "basis", 200),
    ("L5", "pinned", 300),
    ("cubic", "pinned", 800),
)
N_JITTER = 4  # N is drawn from [base, base + N_JITTER)


def _coeff_bits(sol) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in sol.coeffs)


class SolveStream:
    """Exact series generation, verification, substitution and chi, one job per operation."""

    name = "solve-stream"
    why = (
        "long dense Fraction streams with few free parameters (pinned, basis, rho=3/2, "
        "N 200..800): the series path an integer solver kernel targets"
    )
    deadline_s = 60.0
    min_rounds = 3
    ladders = ("series.solve_pinned.n_exponent", "series.verify_recurrence.n_exponent")
    reference = BIG_FRACTIONS

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[Job]] = []
        self.equations = {}

    def make_rounds(self) -> list[list[Job]]:
        rng = _rng(self.name, self.seed)
        return [self._round(rng) for _ in range(ROUNDS_AHEAD)]

    def setup(self, probe: Probe):
        self.rounds = self.make_rounds()
        self.equations = {
            name: do.normalize_to_delta(do.parse_equation(text))
            for name, (text, _, _) in SOLVE_EQUATIONS.items()
        }
        self.run(Job("warm-up", "pinned", ("cubic", 80, README_PINS)), probe)

    def _round(self, rng: random.Random) -> list[Job]:
        jobs = []
        for name, mode, base in SOLVE_PLAN:
            n = base + rng.randrange(N_JITTER)
            if mode == "pinned":
                order = SOLVE_EQUATIONS[name][1]
                # a_0..a_{m-1} are the free parameters of every equation here
                pins = (
                    README_PINS
                    if name == "cubic"
                    else {i: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(order)}
                )
                jobs.append(Job(f"{name} pinned N={n}", mode, (name, n, pins)))
            else:
                jobs.append(Job(f"{name} {mode} N={n}", mode, (name, n)))
        return _shuffled(rng, jobs)

    def run(self, job: Job, probe: Probe):
        name, n = job.args[0], job.args[1]
        eq = self.equations[name]
        chis = SOLVE_EQUATIONS[name][2]
        rho = Fraction(3, 2) if job.kind == "rho3/2" else Fraction(0)
        rec = probe.call("recurrences.shifted_recurrence", do.shifted_recurrence, eq, rho)
        _count_window_terms(probe, rec)
        if job.kind == "pinned":
            pins = job.args[2]
            solutions = probe.call(
                "series.solve_pinned", do.solve_series, rec, n, initial=pins
            )
            check(len(solutions) == 1, f"{len(solutions)} pinned streams")
            for idx, value in pins.items():
                check(solutions[0].coeffs[idx] == value, f"pin a_{idx} not reproduced")
            free_params = len(pins)
        else:
            solutions = probe.call("series.solve_basis", do.solve_series, rec, n)
            check(len(solutions) >= 1, "empty basis")
            free_params = len(solutions)
        if probe.tracing:
            probe.count("series.coeffs_generated", sum(len(s.coeffs) for s in solutions))
            probe.count("series.free_params", free_params)
            probe.peak("series.coeff_bits_max", max(_coeff_bits(s) for s in solutions))
        for sol in solutions:
            check(len(sol.coeffs) == n + 1, f"stream has {len(sol.coeffs)} terms")
            report = probe.call(
                "series.verify_recurrence", do.verify_recurrence, rec, sol, n - rec.order
            )
            check(report.exact, f"row {report.first_failing_row} has a nonzero residual")
            image = probe.call(
                "equations.apply_operator", do.apply_operator, eq, sol, min(50, n - eq.order)
            )
            check(all(v == 0 for v in image), "direct substitution leaves a nonzero term")
            if sum(1 for c in sol.coeffs if c != 0) >= 64:
                fit = probe.call("series.estimate_chi", do.estimate_chi, sol.coeffs)
                check(
                    any(abs(fit.chi_hat - chi) < CHI_TOLERANCE for chi in chis),
                    f"chi_hat {fit.chi_hat} is not near any of {chis}",
                )


# --- construct-roundtrip ---------------------------------------------------------


# Every coprime q/p with p <= 5, and 5/6.  Orders with p of 6 to 9 other than
# 5/6 take 1.5 to 8.4 s each in round trip, so a 15 s run would hold one or two
# of them and their draw would decide the run's figures.
CONSTRUCT_ORDERS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6))
# A round also draws one of the three cheapest orders again: with eleven jobs
# the median of three or four rounds falls on the samples of one order (1/4),
# not between two.
CONSTRUCT_EXTRA = ((1, 2), (1, 3), (2, 3))


def predicted_coeff(q: int, p: int, n: int) -> Fraction:
    """Closed form of a constructed series: a_{qt} = 1/(pt)!, zero off multiples of q."""
    return Fraction(1, math.factorial(p * (n // q))) if n % q == 0 else Fraction(0)


class ConstructRoundtrip:
    """construct_equation(q, p) then roundtrip_check, one order per operation."""

    name = "construct-roundtrip"
    why = (
        "short sparse streams whose basis solves carry many free parameters; "
        "the only workload where construction does real work"
    )
    deadline_s = 60.0
    min_rounds = 3
    ladders = ()
    reference = BIG_FRACTIONS

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[Job]] = []

    def make_rounds(self) -> list[list[Job]]:
        rng = _rng(self.name, self.seed)
        return [
            _shuffled(
                rng,
                [
                    Job(f"{q}/{p}", "construct", (q, p))
                    for q, p in (*CONSTRUCT_ORDERS, rng.choice(CONSTRUCT_EXTRA))
                ],
            )
            for _ in range(ROUNDS_AHEAD)
        ]

    def setup(self, probe: Probe):
        self.rounds = self.make_rounds()
        self.run(Job("warm-up 1/2", "construct", (1, 2)), probe)

    def run(self, job: Job, probe: Probe):
        q, p = job.args
        built = probe.call("construction.construct_equation", do.construct_equation, q, p)
        report = probe.call("construction.roundtrip_check", do.roundtrip_check, built)
        if probe.tracing:
            probe.count("construction.roundtrip.stages", len(report.stages))
            probe.count("construction.roundtrip.stages_ok", sum(1 for s in report.stages if s[1]))
        check(report.ok, f"round trip failed: {report.stages}")
        coeffs = built.predicted_series.coeffs
        check(len(coeffs) > 200, f"predicted series has {len(coeffs)} terms")
        wrong = next((n for n, c in enumerate(coeffs) if c != predicted_coeff(q, p, n)), None)
        check(wrong is None, f"a_{wrong} differs from the closed form")


# --- eval-growth -----------------------------------------------------------------

STREAM_KEYS = ("cubic", "cubic-rho3/2", "quartic34", "construct2/7", "construct3/4")
REFERENCE_BITS = 192
EVAL_REL_TOL = 1e-9
RADII = (50, 100, 200, 400)
# Two max-modulus radii per stream, each drawn within 3%.  A round's median
# and p90 must fall inside a group of operations of like cost, not in the gap
# between two groups, where a few draws would move them by the gap's width:
# the ten scans put the median among the cubic and 2/7 evaluations, and the
# four costliest scans (QUARTIC_34 and 3/4 at large r, 0.25-0.28 s) hold p90.
MAX_MODULUS_RADII = {
    "cubic": (20, 110),
    "cubic-rho3/2": (65, 155),
    "quartic34": (155, 200),
    "construct2/7": (65, 200),
    "construct3/4": (155, 200),
}


def reference_value(sol, z) -> complex:
    """f(z) = ff(z, rho) * sum_n a_n ff(z - rho, n), summed over every coefficient.

    Independent of the package's evaluator: plain gamma prefactor, no stopping
    rule, higher precision.
    """
    with mpmath.workprec(REFERENCE_BITS):
        z = mpmath.mpc(complex(z))
        rho = sol.rho_offset
        rho_mp = mpmath.mpf(rho.numerator) / rho.denominator
        prefactor = mpmath.gamma(z + 1) / mpmath.gamma(z + 1 - rho_mp) if rho else 1
        base = z - rho_mp
        total = mpmath.mpc(0)
        weight = mpmath.mpc(1)
        for n, a in enumerate(sol.coeffs):
            if a:
                total += weight * a.numerator / a.denominator
            weight *= base - n
        return complex(prefactor * total)


def _close(value: complex, reference: complex) -> bool:
    return abs(value - reference) <= EVAL_REL_TOL * (abs(reference) + 1)


class EvalGrowth:
    """mpmath evaluation, maximum modulus and growth fits on streams built in set-up."""

    name = "eval-growth"
    why = (
        "numeric evaluation only: seeded points, max modulus and growth fits on "
        "streams solved in set-up, no exact solving in the timed part"
    )
    deadline_s = 30.0
    min_rounds = 4
    ladders = ()
    FIT_STREAMS = ("cubic", "construct2/7")

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[Job]] = []
        self.streams = {}

    def setup(self, probe: Probe):
        cubic = do.normalize_to_delta(do.parse_equation(CUBIC))
        pinned = do.solve_series(do.derive_recurrence(cubic), 400, initial=README_PINS)[0]
        shifted = do.solve_series(do.shifted_recurrence(cubic, Fraction(3, 2)), 400)
        check(len(shifted) == 1, "the cubic at rho 3/2 has a one-dimensional space")
        quartic = do.normalize_to_delta(do.parse_equation(QUARTIC_34))
        basis = do.solve_series(do.derive_recurrence(quartic), 400)
        self.streams = dict(
            zip(
                STREAM_KEYS,
                (
                    pinned,
                    shifted[0],
                    self._order_three_quarters(basis),
                    do.construct_equation(2, 7).predicted_series,
                    do.construct_equation(3, 4).predicted_series,
                ),
            )
        )
        self.rounds = self.make_rounds()
        self.run(Job("warm-up", "eval", ("cubic", 2.5)), probe)

    @staticmethod
    def _order_three_quarters(basis):
        """The basis combination with a_{3k} = 1/(4k)!: QUARTIC_34's order-3/4 solution."""
        # each basis stream is 1 at its own free index and 0 at the others
        weighted = [(predicted_coeff(3, 4, min(sol.provenance["free"])), sol) for sol in basis]
        coeffs = [
            sum(weight * sol.coeffs[n] for weight, sol in weighted)
            for n in range(len(basis[0].coeffs))
        ]
        for n, c in enumerate(coeffs):
            check(c == predicted_coeff(3, 4, n), f"QUARTIC_34 combination differs at a_{n}")
        return do.SeriesSolution.from_values(coeffs)

    def make_rounds(self) -> list[list[Job]]:
        rng = _rng(self.name, self.seed)
        return [self._round(rng) for _ in range(ROUNDS_AHEAD)]

    def _round(self, rng: random.Random) -> list[Job]:
        jobs = [Job("cubic at 2.5", "eval", ("cubic", 2.5))]
        for key in STREAM_KEYS:
            real = rng.randint(-40, 49) + rng.uniform(0.1, 0.4) + rng.choice((0, 0.5))
            # off the real axis, where the gamma prefactor of the rho=3/2 stream has its poles
            angle = rng.uniform(0.1, 0.9) * math.pi * rng.choice((1, -1))
            modulus = rng.uniform(5, 50)
            point = complex(modulus * math.cos(angle), modulus * math.sin(angle))
            positive = rng.randint(1, 39) + rng.uniform(0.1, 0.4)
            for z in (rng.randint(0, 40), real, positive, point):
                jobs.append(Job(f"{key} at {z:.4g}", "eval", (key, z)))
            for radius in MAX_MODULUS_RADII[key]:
                radius *= rng.uniform(0.97, 1.03)
                jobs.append(Job(f"{key} max modulus r={radius:.1f}", "max_modulus", (key, radius)))
        for key in self.FIT_STREAMS:
            jobs.append(Job(f"{key} growth fit", "empirical_order", (key,)))
        return _shuffled(rng, jobs)

    def run(self, job: Job, probe: Probe):
        key = job.args[0]
        sol = self.streams[key]
        if job.kind == "eval":
            z = job.args[1]
            result = probe.call("evaluation.eval_series", do.eval_series, sol, z)
            probe.count("evaluation.terms_summed", result.terms_used)
            self._check_value(key, sol, z, result.value)
        elif job.kind == "max_modulus":
            radius = job.args[1]
            value = probe.call("evaluation.max_modulus", do.max_modulus, sol, radius)
            # four of the 64 circle samples lie on the axes
            axes = [reference_value(sol, radius * w) for w in (1, 1j, -1, -1j)]
            floor = max(abs(v) for v in axes)
            check(math.isfinite(value), f"max modulus {value}")
            check(value >= floor * (1 - EVAL_REL_TOL), f"max modulus {value} < |f| {floor} on an axis")
        else:
            fit = probe.call("evaluation.empirical_order", do.empirical_order, sol, RADII)
            check(math.isfinite(fit.rho_hat), f"rho_hat {fit.rho_hat}")
            for radius, log_m in zip(RADII, fit.log_max_modulus):
                floor = math.log(abs(reference_value(sol, radius)))
                check(log_m >= floor - 1e-6, f"log M({radius}) = {log_m} < log|f({radius})|")
            if key == "cubic":
                check(abs(fit.rho_hat - 1 / 3) < 0.02, f"cubic rho_hat {fit.rho_hat}")

    def _check_value(self, key: str, sol, z, value: complex):
        if key == "cubic" and z == 2.5:
            check(
                abs(value - README_VALUE_AT_2_5) <= 1e-12 * README_VALUE_AT_2_5,
                f"cubic at 2.5 is {value}",
            )
        elif key.startswith("construct") and isinstance(z, int):
            q, p = (int(x) for x in key.removeprefix("construct").split("/"))
            exact = sum(
                Fraction(math.factorial(z), math.factorial(z - q * t) * math.factorial(p * t))
                for t in range(z // q + 1)
            )
            check(abs(value - float(exact)) <= 1e-12 * float(exact), f"{key} at {z}: {value} != {exact}")
        else:
            reference = reference_value(sol, z)
            check(_close(value, reference), f"{key} at {z}: {value} != {reference}")


WORKLOADS = {cls.name: cls for cls in (AnalyzeSweep, SolveStream, ConstructRoundtrip, EvalGrowth)}


# --- scaling ladders (traced runs only) --------------------------------------------

N_LADDER = (200, 400, 800, 1600)
D_LADDER = (5, 10, 15, 20, 25, 30)
M_LADDER = (2, 4, 8, 12, 16)


def scaling_exponents(names) -> dict[str, tuple[float, list]]:
    """Fitted time exponents, with the (size, seconds) points each was fitted on.

    Only the ladders in ``names`` run; sizes below 0.2 s are timed three
    times and the median kept.  Times are normalised seconds.
    """
    ladders = {}
    if {"series.solve_pinned.n_exponent", "series.verify_recurrence.n_exponent"} & set(names):
        rec = do.derive_recurrence(do.normalize_to_delta(do.parse_equation(CUBIC)))
        solve_points, verify_points = [], []
        for n in N_LADDER:
            solutions, seconds = normalised_call(do.solve_series, rec, n, README_PINS)
            sol = solutions[0]
            solve_points.append((n, seconds))
            verify_points.append((n, _median_time(do.verify_recurrence, rec, sol, n - rec.order)))
        ladders["series.solve_pinned.n_exponent"] = solve_points
        ladders["series.verify_recurrence.n_exponent"] = verify_points
    if "recurrences.derive_recurrence.d_exponent" in names:
        ladders["recurrences.derive_recurrence.d_exponent"] = [
            (d, _median_time(do.derive_recurrence, _delta(f"z^{d} D f(z) + f(z) = 0")))
            for d in D_LADDER
        ]
    if "recurrences.indicial_exponents.m_exponent" in names:
        ladders["recurrences.indicial_exponents.m_exponent"] = [
            (m, _median_time(do.indicial_exponents, _delta(f"D^{m} f(z) + z^{m - 1} f(z) = 0")))
            for m in M_LADDER
        ]
    return {name: (fit_exponent(points), points) for name, points in ladders.items()}


def _delta(text: str):
    return do.normalize_to_delta(do.parse_equation(text))


def _median_time(fn, *args) -> float:
    samples = [normalised_call(fn, *args)[1]]
    if samples[0] < 0.2:
        samples += [normalised_call(fn, *args)[1] for _ in range(2)]
    return statistics.median(samples)
