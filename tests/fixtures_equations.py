"""Shared fixture equations and stream generators used across the tests."""

from __future__ import annotations

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import strategies as st

from deltaorder import DifferenceEquation, GeneralForm, OperatorTerm, Poly


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# order-3 equation with a single admissible order 1/3
CUBIC_THIRD = "(6z^2 + 19z + 15) D^3 f(z) + (z + 3) D^2 f(z) - D f(z) - f(z) = 0"

# order-4 equation with admissible order 3/4 (pure difference form)
QUARTIC_34 = (
    "(256z^3 + 1920z^2 + 4656z + 3640) D^4 y(z) + (384z^2 + 1760z + 1944) D^3 y(z)"
    " - (80z + 120) D^2 y(z) - (81z^2 + 405z + 446) D y(z)"
    " - (81z^2 + 405z + 486) y(z) = 0"
)

# the same operator written with shifted arguments (recenters by z -> z+3)
QUARTIC_34_SHIFTED = (
    "256z(z - 1)(z - 2) D^4 y(z - 3) + 384z(z - 1) D^3 y(z - 2)"
    " - 80z D^2 y(z - 1) + 40 D y(z) - 81z(z - 1) y(z - 2) = 0"
)

# shift-form coefficients equivalent to QUARTIC_34: shift -> polynomial
QUARTIC_34_SHIFT_TABLE = {
    4: [3640, 4656, 1920, 256],
    3: [-12616, -16864, -7296, -1024],
    2: [15888, 22576, 10368, 1536],
    1: [-8934, -13589, -6609, -1024],
    0: [1536, 2816, 1536, 256],
}

# second-order equation from the 1/2-order discussion
HALF_ORDER = "(4z + 6) D^2 f(z) + 3 D f(z) + f(z) = 0"

# order-3 factor of the composed order-8 operator (order list {1/3})
L3_TEXT = (
    "(6z^5 + 37z^4 + 84z^3 + 83z^2 + 30z) D^3 f(z)"
    " - (17z^4 + 68z^3 + 87z^2 + 36z) D^2 f(z)"
    " + (33z^3 + 97z^2 + 66z) D f(z) - (z^3 + 39z^2 + 108z + 72) f(z) = 0"
)

# order-5 factor (order list {1/5})
L5_TEXT = (
    "(36z^4 + 588z^3 + 3583z^2 + 9653z + 9702) D^5 f(z)"
    " + (228z^3 + 2594z^2 + 9806z + 12319) D^4 f(z)"
    " + (271z^2 + 1981z + 3596) D^3 f(z) + (28z + 114) D^2 f(z)"
    " - 2 D f(z) - f(z) = 0"
)

# expected coefficients (ascending powers) of the composed order-8 operator
L8_COEFFS = [
    [72, 108, 39, 1],
    [144, 150, -19, -31],
    [-8208, -12576, -4861, -280, -11],
    [-258912, -394482, -155801, -16443, -3909, -277],
    [-886968, -1168092, -285305, 1004, -30092, -3675, -228],
    [-698544, -112998, 1284431, 1080909, 466401, 143264, 14809, -36],
    [0, 2403240, 6616921, 7634180, 4758666, 1591736, 248295, 14130],
    [0, 4084050, 13383629, 17615961, 11934400, 4406121, 870903, 86148, 3348],
    [0, 2691000, 8972550, 12085315, 8524337, 3416591, 794461, 105678, 7452, 216],
]


def third_order_stream(count: int) -> list[Fraction]:
    """a_n with n(2n-3)(3n-4) a_n = a_{n-1}, a_0 = 1 (decay of order 1/3)."""
    out = [Fraction(1)]
    for n in range(1, count + 1):
        out.append(out[-1] / (n * (2 * n - 3) * (3 * n - 4)))
    return out


def fifth_order_stream(count: int) -> list[Fraction]:
    """a_n with n(2n-1)(2n-3)(3n-1)(3n-4) a_n = a_{n-1}, a_0 = 1 (order 1/5)."""
    out = [Fraction(1)]
    for n in range(1, count + 1):
        out.append(out[-1] / (n * (2 * n - 1) * (2 * n - 3) * (3 * n - 1) * (3 * n - 4)))
    return out


def quartic_34_stream(count: int) -> list[Fraction]:
    """a_{3k} = 1/(4k)!, zero elsewhere, up to index count (order 3/4)."""
    import math

    out = [Fraction(0)] * (count + 1)
    k = 0
    while 3 * k <= count:
        out[3 * k] = Fraction(1, math.factorial(4 * k))
        k += 1
    return out


def prod_poly(*factor_coeffs) -> Poly:
    """Product of polynomials given by ascending coefficient lists."""
    out = Poly([1])
    for cs in factor_coeffs:
        out = out * Poly(cs)
    return out


def random_poly(rng: random.Random, max_degree: int, allow_zero: bool = True) -> Poly:
    if allow_zero and rng.random() < 0.15:
        return Poly()
    degree = rng.randint(0, max_degree)
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(rng.choice([x for x in range(-9, 10) if x]))
    return Poly(coeffs)


def random_equation(
    rng: random.Random, max_order: int = 6, max_degree: int = 5
) -> DifferenceEquation:
    order = rng.randint(1, max_order)
    coeffs = [random_poly(rng, max_degree) for _ in range(order)]
    coeffs.append(random_poly(rng, max_degree, allow_zero=False))
    return DifferenceEquation(coeffs)


def apply_operator_oracle(eq: DifferenceEquation, coeffs, rho, upto: int) -> list[Fraction]:
    """The image coefficients 0..upto of sum a_n ff(z, n + rho), by the product rule in Fractions."""
    expected = [Fraction(0)] * (upto + 1)
    for j, p in enumerate(eq.coeffs):
        for t, coeff_t in enumerate(to_falling_basis(p)):
            for k in range(t + 1):
                for n, a in enumerate(coeffs):
                    if 0 <= n + t - k - j <= upto:
                        term = coeff_t * binomial(t, k) * a * falling_factorial(n + rho, j + k)
                        expected[n + t - k - j] += term
    return expected


def pure_shift_form(eq: DifferenceEquation) -> GeneralForm:
    """``eq`` with pure shifts:  Delta^k f(z) = sum_t C(k, t) (-1)^(k-t) f(z + t)."""
    table: dict[int, Poly] = {}
    for k, p in enumerate(eq.coeffs):
        for t in range(k + 1):
            table[t] = table.get(t, Poly()) + p * ((-1) ** (k - t) * math.comb(k, t))
    return GeneralForm(tuple(OperatorTerm(c, 0, s) for s, c in sorted(table.items(), reverse=True)))


# --- falling-power references, kept apart from the package's kernels ----------


def binomial(n: int, k: int) -> int:
    """C(n, k), and 0 for k < 0 as for k > n."""
    return math.comb(n, k) if k >= 0 else 0


def falling_factorial_poly(length: int, offset=0) -> Poly:
    """ff(z + offset, length) = (z + offset)(z + offset - 1)...(z + offset - length + 1)."""
    offset = Fraction(offset)
    out = Poly([1])
    for u in range(length):
        out = out * Poly([offset - u, 1])
    return out


def falling_factorial(x, length: int) -> Fraction:
    """The exact falling factorial x(x-1)...(x-length+1) of a rational x."""
    out = Fraction(1)
    for u in range(length):
        out *= Fraction(x) - u
    return out


def to_falling_basis(p: Poly) -> list[Fraction]:
    """Falling-factorial coefficients of p, index = falling power: Delta^t p(0) / t!."""
    values = [p(Fraction(x)) for x in range(len(p.coeffs))]
    out = []
    while values:
        out.append(values[0] / math.factorial(len(out)))
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def window_sums(window: dict[int, Poly], rho=0) -> dict[int, tuple[int, ...]]:
    """The integer sums of a window of polynomials in n, for ``CoefficientRecurrence``.

    Entry Q_i becomes B_u = Delta^u Q_i(i - rho) / u!, its Newton coefficients
    at the nodes i - rho, i - rho + 1, ...  Every entry is multiplied by the
    smallest integer that makes all the sums integers; a common factor leaves
    the rows' solutions unchanged.
    """
    rho = Fraction(rho)
    sums = {}
    for i, q in window.items():
        values = [q(i - rho + x) for x in range(len(q.coeffs))]
        sums[i] = []
        while values:
            sums[i].append(values[0] / math.factorial(len(sums[i])))
            values = [b - a for a, b in zip(values, values[1:])]
    common = math.lcm(*[c.denominator for b in sums.values() for c in b])
    return {i: tuple(int(c * common) for c in b) for i, b in sums.items()}


def undetermined(rec, count: int) -> list[int]:
    """Stream indices 0..count that no row up to index count determines, in Fractions.

    Index t is determined by row t - order when that row exists
    (t - order >= ``first_row``) and the deepest entry Q_{-order} of the
    monomial ``window`` does not vanish there.  The rest are the indices a
    row reduction leaves to pins or free parameters, in increasing order.
    """
    deepest = rec.window[-rec.order]
    rows = range(rec.first_row, count - rec.order + 1)
    determined = {n + rec.order for n in rows if deepest(Fraction(n))}
    return [t for t in range(count + 1) if t not in determined]


def falling_power(z, rho) -> complex:
    """The package's falling power ff(z, rho) at the working precision, rounded to a double."""
    import mpmath

    from deltaorder import working_precision
    from deltaorder.evaluation import _falling_power_mp

    with mpmath.workprec(working_precision()):
        return complex(_falling_power_mp(z, rho))


def falling_product_sum(z, m: int, rho: Fraction, prec: int = 128) -> complex:
    """sum_j C(m, j) ff(rho, j) ff(z, rho + m - j), the product rule's side of

        ff(z, m) ff(z, rho) = sum_j C(m, j) ff(rho, j) ff(z, rho + m - j).

    The terms can cancel heavily, so they are summed at ``prec`` bits and
    rounded to a double only at the end.
    """
    import mpmath

    from deltaorder.evaluation import _falling_power_mp

    with mpmath.workprec(prec):
        total = mpmath.mpc(0)
        for j in range(m + 1):
            weight = math.comb(m, j) * falling_factorial(rho, j)
            if weight:
                total += mpmath.mpf(weight.numerator) / weight.denominator * _falling_power_mp(z, rho + m - j)
        return complex(total)


# --- stream denominators for the exact row sums --------------------------------


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


SMALL_PRIMES = _primes_below(5000)


@st.composite
def stream_denominators(draw, length: int) -> list[int]:
    """Denominators of a stream, 0 for a zero value.

    They nest (each a multiple of the one before, as in a decaying stream),
    nest but for every third, which is narrow and unrelated (as QUARTIC_34's
    pinned streams), or are products of 1 to 10 primes, no prime used twice:
    coprime denominators of up to about 120 bits, whose running lcm soon passes
    the width at which a denominator chain starts a new segment.
    """
    kind = draw(st.sampled_from(["nested", "period-3", "coprime"]))
    if kind == "coprime":
        primes = iter(draw(st.randoms(use_true_random=False)).sample(SMALL_PRIMES, 10 * length))
        dens = [math.prod(next(primes) for _ in range(draw(st.integers(1, 10)))) for _ in range(length)]
    else:
        den = draw(st.sampled_from([1, 2, 6]))
        dens = []
        for i in range(length):
            den *= draw(st.sampled_from([1, 2, 3, 10, 2**61 - 1]))
            dens.append(den if kind == "nested" or i % 3 else draw(st.integers(1, 10**6)))
    return [0 if draw(st.integers(0, 5)) == 0 else d for d in dens]


def stream_values(draw, dens) -> list[Fraction]:
    """Values with exactly the denominators ``dens`` (0 for a den of 0), numerators k d + 1."""
    return [Fraction(draw(st.integers(-3, 3)) * d + 1, d) if d else Fraction(0) for d in dens]
