"""The integer row kernel of the solver against a Fraction oracle.

The oracle below is the plain rational algorithm: rows evaluated as
Fractions, stream values kept as affine combinations of free parameters in
Fractions, a zero-lead row eliminating its newest free parameter, pins
eliminated in index order and the remaining freedom zeroed.  The kernel must
reproduce its streams, provenance and verification reports exactly.

Three properties cover what the oracle cannot see: pins at free and at
row-determined indices, imposed as the reduction creates their indices, give
the oracle's stream of pins applied after every row; pins at every index that
no row determines leave no free parameter and give the stream of pins at the
surviving free parameters; and the content left by cutting only the row's
lead stays a bounded share of each stored denominator.  One more holds the
solver's column form after every row: one entry per value in each column,
0 over 0 for a zero value, a constant column exactly for a pinned solve.

Three more hold the row sums over one denominator chain per stream to the
oracles: verification, operator application and solves on drawn
denominators, pinned in full or leaving free parameters whose columns cross
the start of a chain segment; solver rows that cross a segment start; and a
deadline on a verification over thousands of distinct primes.

The last five check the output reduction over the lcms of the reduction's
atoms against ``Fraction(num, den)``, field by field: on solves forced onto
it, far below the widths where the solver takes it, on the prefix radix of
each value where eliminations rewrite values made before their pivots, and
on the helper alone.
"""

import dataclasses
import functools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import (
    CoefficientRecurrence,
    Poly,
    SeriesSolution,
    apply_operator,
    construct_equation,
    derive_recurrence,
    normalize_to_delta,
    parse_equation,
    shifted_recurrence,
    solve_series,
    verify_recurrence,
)
from deltaorder.errors import InconsistentSystemError, InsufficientDataError
from deltaorder.polynomials import denominator_chain
from deltaorder import series
from deltaorder.series import RowReduction, reduced_fraction

from fixtures_equations import (
    CUBIC_THIRD,
    QUARTIC_34,
    SMALL_PRIMES,
    apply_operator_oracle,
    deadline,
    random_equation,
    stream_denominators,
    stream_values,
    undetermined,
    window_sums,
)


def oracle_row(rec, n):
    out = []
    for i in range(-rec.order, rec.max_index + 1):
        q = rec.window.get(i)
        if n - i < 0 or q is None or q.is_zero:
            continue
        value = q(Fraction(n))
        if value != 0:
            out.append((n - i, value))
    return out


class OracleState:
    def __init__(self):
        self.values = []
        self.free_ids = []

    def append_free(self):
        fid = len(self.values)
        self.values.append((Fraction(0), {fid: Fraction(1)}))
        self.free_ids.append(fid)

    def eliminate(self, const, lin):
        live = {f: c for f, c in lin.items() if c != 0}
        if not live:
            if const != 0:
                raise InconsistentSystemError("rows force a nonzero constant")
            return
        target = max(live)
        pivot = live.pop(target)
        sub_const = -const / pivot
        sub_lin = {f: -c / pivot for f, c in live.items()}
        self.free_ids.remove(target)
        updated = []
        for vconst, vlin in self.values:
            w = vlin.get(target)
            if not w:
                updated.append((vconst, vlin))
                continue
            nlin = {f: c for f, c in vlin.items() if f != target}
            for f, c in sub_lin.items():
                nlin[f] = nlin.get(f, Fraction(0)) + w * c
            updated.append((vconst + w * sub_const, {f: c for f, c in nlin.items() if c != 0}))
        self.values = updated


def oracle_solve(rec, count, initial=None):
    state = OracleState()
    for n in range(rec.first_row, count - rec.order + 1):
        top = n + rec.order
        while len(state.values) < top:
            state.append_free()
        const, lin, lead = Fraction(0), {}, Fraction(0)
        for idx, c in oracle_row(rec, n):
            if idx == top:
                lead = c
                continue
            vconst, vlin = state.values[idx]
            const += c * vconst
            for f, w in vlin.items():
                lin[f] = lin.get(f, Fraction(0)) + c * w
        if lead != 0:
            state.values.append((-const / lead, {f: -w / lead for f, w in lin.items() if w != 0}))
        else:
            state.eliminate(const, lin)
    while len(state.values) <= count:
        state.append_free()
    rho = rec.rho_offset
    if initial is not None:
        for idx, wanted in sorted(initial.items()):
            vconst, vlin = state.values[idx]
            state.eliminate(vconst - wanted, dict(vlin))
        for fid in list(state.free_ids):
            state.eliminate(Fraction(0), {fid: Fraction(1)})
        stream = [vconst for vconst, _ in state.values[: count + 1]]
        if any(stream[idx] != wanted for idx, wanted in initial.items()):
            raise InconsistentSystemError("pins contradict the rows")
        pinned = dict(sorted(initial.items()))
        return [SeriesSolution.from_values(stream, rho=rho, provenance={"pinned": pinned})]
    solutions = []
    for fid in state.free_ids:
        stream = [vlin.get(fid, Fraction(0)) for _, vlin in state.values[: count + 1]]
        if any(stream):
            solutions.append(
                SeriesSolution.from_values(stream, rho=rho, provenance={"free": {fid: Fraction(1)}})
            )
    return solutions


def oracle_verify(rec, sol, rows):
    worst, first_bad = Fraction(0), None
    for n in range(rec.first_row, rows + 1):
        total = sum((c * sol.coeffs[idx] for idx, c in oracle_row(rec, n)), Fraction(0))
        if total != 0:
            first_bad = n if first_bad is None else first_bad
            worst = max(worst, abs(total))
    return worst, first_bad


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except (InconsistentSystemError, InsufficientDataError, ValueError) as exc:
        return type(exc)


small_rationals = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)
nonzero_rationals = st.builds(
    Fraction, st.integers(1, 9) | st.integers(-9, -1), st.sampled_from([1, 2, 3, 4, 6, 9])
)


@st.composite
def recurrences(draw, min_roots=0, max_order=3):
    rho = draw(st.sampled_from([Fraction(0), Fraction(3, 2), Fraction(7, 3)]))
    order = draw(st.integers(1, max_order))
    max_index = draw(st.integers(0, 3))
    first_row = 0 if rho == 0 else -order
    # the deepest entry may vanish at a few rows, which makes them constraints;
    # ``min_roots`` non-negative roots make sure that some rows do
    lead = Poly([draw(nonzero_rationals)])
    roots = draw(st.lists(st.integers(first_row, first_row + 8), max_size=2))
    roots += draw(st.lists(st.integers(0, 8), min_size=min_roots, max_size=min_roots))
    for root in roots:
        lead = lead * Poly([-root, 1])
    window = {-order: lead}
    for i in range(-order + 1, max_index + 1):
        window[i] = Poly(draw(st.lists(small_rationals, max_size=3)))
    return CoefficientRecurrence(window_sums(window, rho), rho)


@settings(max_examples=200, deadline=None)
@given(rec=recurrences(), data=st.data())
def test_integer_kernel_matches_fraction_oracle(rec, data):
    count = rec.span + data.draw(st.integers(0, 12))
    assert list(rec.rows(count)) == [
        (n, tuple([(idx, c * rec.scale) for idx, c in oracle_row(rec, n)])) for n in range(rec.first_row, count + 1)
    ]
    if data.draw(st.booleans()):
        # pins on the first few indices usually hit free parameters and agree
        highest = data.draw(st.sampled_from([min(rec.order, count), count]))
        indices = data.draw(st.lists(st.integers(0, highest), max_size=4, unique=True))
        initial = {idx: data.draw(small_rationals) for idx in indices}
    else:
        initial = None
    expected = _outcome(oracle_solve, rec, count, initial=initial)
    actual = _outcome(solve_series, rec, count, initial=initial)
    assert actual == expected
    if expected is InconsistentSystemError:
        return
    if initial is None:
        # a surviving free parameter keeps its own value, so no basis stream vanishes
        for sol in actual:
            (f,) = sol.provenance["free"]
            assert sol.coeffs[f] == 1
    rows = count - rec.order
    streams = list(expected)
    # a random stream leaves nonzero residuals to compare
    noise = data.draw(st.lists(small_rationals, min_size=count + 1, max_size=count + 1))
    streams.append(SeriesSolution.from_values(noise, rho=rec.rho_offset))
    for sol in streams:
        report = verify_recurrence(rec, sol, rows)
        assert (report.max_residual, report.first_failing_row) == oracle_verify(rec, sol, rows)
        assert report.rows_checked == rows + 1 - rec.first_row


@settings(max_examples=200, deadline=None)
@given(rec=recurrences(), data=st.data())
def test_pins_absorbed_at_creation_match_pins_applied_late(rec, data):
    count = rec.span + data.draw(st.integers(0, 12))
    # a solution to copy pins from, so that pins at row-determined indices agree at times
    choice = {f: data.draw(small_rationals) for f in RowReduction(rec, count).free_ids}
    reference = oracle_solve(rec, count, initial=choice)[0].coeffs
    # free and row-determined indices, pinned to the reference or to a random value
    initial = {}
    for idx in data.draw(st.lists(st.integers(0, count), min_size=1, max_size=4, unique=True)):
        initial[idx] = reference[idx] if data.draw(st.booleans()) else data.draw(small_rationals)
    outside = st.integers(-2, -1) | st.integers(count + 1, count + 3)
    for idx in data.draw(st.lists(outside, max_size=2, unique=True)):
        initial[idx] = data.draw(small_rationals)
    actual = _outcome(solve_series, rec, count, initial)
    # a pinned solve checks its indices before any row, even rows that contradict its pins
    bad = [idx for idx in sorted(initial) if not 0 <= idx <= count]
    if bad:
        assert actual is (ValueError if bad[0] < 0 else InsufficientDataError)
    else:
        assert actual == _outcome(oracle_solve, rec, count, initial=initial)


@settings(max_examples=200, deadline=None)
@given(rec=recurrences(min_roots=1), data=st.data())
def test_pins_at_the_undetermined_indices_reproduce_the_eliminated_stream(rec, data):
    # the stream pinned at the surviving free parameters is the stream pinned
    # at every index that no row determines; rows reach past the drawn roots
    # 0..8, and about 40% of the draws eliminate
    count = rec.span + data.draw(st.integers(8, 20))
    reduction = RowReduction(rec, count)
    free = undetermined(rec, count)
    assert set(reduction.free_ids) <= set(free)
    choice = {f: data.draw(small_rationals) for f in reduction.free_ids}
    reference = oracle_solve(rec, count, initial=choice)[0]
    pins = {idx: reference.coeffs[idx] for idx in free}
    assert RowReduction(rec, count, initial=pins).free_ids == []
    assert solve_series(rec, count, initial=pins)[0].coeffs == reference.coeffs


def test_a_pin_at_a_row_determined_index_eliminates_at_creation():
    # a_5 is determined by a row, yet pinning it takes up the free a_2
    rec = derive_recurrence(normalize_to_delta(parse_equation(CUBIC_THIRD)))
    initial = {0: Fraction(1), 1: Fraction(0), 5: Fraction(1)}
    assert RowReduction(rec, 80).free_ids == [0, 1, 2]
    assert 5 not in undetermined(rec, 80)
    assert RowReduction(rec, 80, initial=initial).free_ids == []
    assert solve_series(rec, 80, initial=initial) == oracle_solve(rec, 80, initial=initial)


@settings(max_examples=150, deadline=None)
@given(rec=recurrences(), data=st.data())
def test_stored_denominators_stay_near_the_exact_ones(rec, data):
    # a stored denominator keeps the content that its row's lead did not
    # cut; it stays within twice the bits of the largest exact denominator
    # up to its index, plus 32
    count = rec.span + data.draw(st.integers(0, 60))
    unpinned = RowReduction(rec, count)
    # pins at every free index, as a pinned solve of the workloads has them
    initial = {f: data.draw(small_rationals) for f in unpinned.free_ids}
    for reduction in (unpinned, RowReduction(rec, count, initial)):
        exact_bits = 0
        for k, den in enumerate(reduction.dens):
            if not den:  # a zero value, stored over 0
                continue
            exact = den // math.gcd(den, *[column[k] for column in reduction.columns.values()])
            exact_bits = max(exact_bits, exact.bit_length())
            assert den.bit_length() <= 2 * exact_bits + 32


def _check_columns(reduction, pinned):
    """The column form of a reduction's stored values, as ``RowReduction`` documents it."""
    dens, columns = reduction.dens, reduction.columns
    assert all(len(column) == len(dens) for column in columns.values())
    for k, den in enumerate(dens):
        # a zero value, and only a zero value, is 0 over 0
        assert (den == 0) == all(column[k] == 0 for column in columns.values())
    assert (series._CONSTANTS in columns) == pinned
    free = [key for key in columns if key != series._CONSTANTS]
    assert reduction.free_ids == free == sorted(free)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rec=recurrences(min_roots=1), data=st.data())
def test_columns_stay_aligned_with_the_stored_values(rec, data):
    # after every row of basis and pinned solves, rho 0, 3/2 and 7/3, with
    # vanishing leads: no pins, none at all ({}), zero pins, and pins at
    # indices no row determines and at indices a row determines
    count = rec.span + data.draw(st.integers(0, 16))
    initial = data.draw(st.sampled_from([None, {}, "drawn"]))
    if initial == "drawn":
        spots = data.draw(st.lists(st.integers(0, count), min_size=1, max_size=5, unique=True))
        initial = {idx: data.draw(st.just(Fraction(0)) | small_rationals) for idx in spots}
    rows = 0
    add_row = RowReduction._add_row

    def checked(self, row, top):
        nonlocal rows
        add_row(self, row, top)
        _check_columns(self, initial is not None)
        rows += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RowReduction, "_add_row", checked)
        try:
            reduction = RowReduction(rec, count, initial)
        except InconsistentSystemError:
            return
    _check_columns(reduction, initial is not None)
    assert rows == count - rec.order + 1 - rec.first_row


def _verify_stream(kind):
    if kind == "construct 1/5":
        built = construct_equation(1, 5)
        return derive_recurrence(built.canonical), built.predicted_series
    text, pins = {
        "quartic34 pinned": (QUARTIC_34, {0: Fraction(3, 7), 1: Fraction(-2), 2: Fraction(5, 9), 3: Fraction(1, 4)}),
        "cubic pinned": (CUBIC_THIRD, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 4)}),
    }[kind]
    rec = derive_recurrence(normalize_to_delta(parse_equation(text)))
    return rec, solve_series(rec, 90, initial=pins)[0]


@pytest.mark.parametrize(
    "kind, nested", [("quartic34 pinned", False), ("cubic pinned", True), ("construct 1/5", True)]
)
def test_verify_matches_the_fraction_oracle_on_corrupted_streams(kind, nested):
    rec, sol = _verify_stream(kind)
    rows = 60
    # on the cubic and the construction every denominator is a multiple of
    # the chain's common before it, so every scale is 1; on QUARTIC_34 most
    # are not, and most scales exceed 1
    _, _, scale = denominator_chain([c.denominator if c else 0 for c in sol.coeffs[: rows + rec.order + 1]])
    scaled = sum(1 for s in scale if s > 1)
    if nested:
        assert all(s == 1 for s in scale)
    else:
        assert scaled > len(scale) // 2, scaled
    assert verify_recurrence(rec, sol, rows).exact
    for corrupt in ({40: 2}, {12: Fraction(1, 3), 55: -1}, {rows + rec.order: 5}):
        coeffs = list(sol.coeffs)
        for idx, factor in corrupt.items():
            coeffs[idx] = coeffs[idx] * factor if coeffs[idx] else Fraction(1, 7)
        bad = dataclasses.replace(sol, coeffs=tuple(coeffs))
        report = verify_recurrence(rec, bad, rows)
        assert report.first_failing_row is not None
        assert (report.max_residual, report.first_failing_row) == oracle_verify(rec, bad, rows)


def test_chain_sums_match_the_fraction_oracle_on_drawn_denominators(monkeypatch):
    # the solver's rows that sum free-parameter columns across a chain
    # segment start are counted: at least one of the draws must make one
    crossings = 0
    add_row = RowReduction._add_row

    def counted(self, row, top):
        nonlocal crossings
        summed = [idx for idx, _ in row if idx != top and self.dens[idx]]
        if any(self.columns[f][idx] for f in self.free_ids for idx in summed):
            _, step, _ = denominator_chain(self.dens[:top])
            crossings += 0 in step[min(summed) + 1 : max(summed) + 1]
        add_row(self, row, top)

    monkeypatch.setattr(RowReduction, "_add_row", counted)
    _check_chain_sums()
    assert crossings >= 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def _check_chain_sums(data):
    # the pins, the drawn stream and a corrupted solution carry denominators
    # that nest, nest but for every third, are coprime (whose rows cross the
    # starts of chain segments) or belong to zero values; a high order or a
    # vanishing lead leaves more indices to the pins.  Or the pins, over
    # products of seven distinct primes (about 80 bits), sit at the first
    # index no row determines, at a drawn share of the others and at up to
    # one index a row determines, and leave the rest free: a free value, over
    # 1, starts a segment after a wide pin, and the pin at a determined index
    # eliminates over the free-parameter columns summed across it
    rec = data.draw(recurrences(min_roots=data.draw(st.integers(0, 2)), max_order=6))
    count = rec.span + data.draw(st.integers(0, 30))
    spots = undetermined(rec, count)
    if data.draw(st.booleans()):
        drawn = stream_values(data.draw, data.draw(stream_denominators(count + 1)))
    else:
        primes = iter(data.draw(st.randoms(use_true_random=False)).sample(SMALL_PRIMES[168:], 7 * (count + 1)))
        drawn = stream_values(data.draw, [math.prod(next(primes) for _ in range(7)) for _ in range(count + 1)])
        determined = sorted(set(range(count + 1)) - set(spots))
        spots = spots[:1] + [idx for idx in spots[1:] if data.draw(st.booleans())]
        spots += data.draw(st.lists(st.sampled_from(determined), max_size=1)) if determined else []
    pins = {idx: drawn[idx] for idx in spots}
    expected = _outcome(oracle_solve, rec, count, initial=pins)
    assert _outcome(solve_series, rec, count, initial=pins) == expected
    streams = [drawn]
    if expected is not InconsistentSystemError:
        solved = list(expected[0].coeffs)
        bad = list(solved)
        idx = data.draw(st.integers(0, count))
        bad[idx] = drawn[idx] if drawn[idx] != bad[idx] else bad[idx] + 1
        streams += [solved, bad]
    rows = count - rec.order
    eq = random_equation(random.Random(data.draw(st.integers(0, 2**32))), max_order=3, max_degree=3)
    upto = count - eq.order
    for values in streams:
        sol = SeriesSolution.from_values(values, rho=rec.rho_offset)
        report = verify_recurrence(rec, sol, rows)
        assert (report.max_residual, report.first_failing_row) == oracle_verify(rec, sol, rows)
        if upto >= 0:
            assert apply_operator(eq, sol, upto) == apply_operator_oracle(eq, values, rec.rho_offset, upto)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_solver_rows_across_segment_starts_match_the_fraction_oracle(data):
    # dense rows over pins that alternate 10 primes above 1000 and one prime
    # below 5000: the chain restarts at a narrow pin, and the first rows cross it
    order = data.draw(st.integers(2, 6))
    window = {i: Poly([data.draw(nonzero_rationals), data.draw(small_rationals)]) for i in range(-order, 1)}
    rec = CoefficientRecurrence(window_sums(window))
    primes = iter(data.draw(st.randoms(use_true_random=False)).sample(SMALL_PRIMES[168:], 10 * order))
    dens = [math.prod(next(primes) for _ in range(10 if i % 2 == 0 else 1)) for i in range(order)]
    assert 0 in denominator_chain(dens)[1][1:]
    pins = dict(enumerate(stream_values(data.draw, dens)))
    count = rec.span + data.draw(st.integers(0, 12))
    assert _outcome(solve_series, rec, count, initial=pins) == _outcome(oracle_solve, rec, count, initial=pins)


def test_verify_over_distinct_primes_stays_within_its_deadline():
    # 3201 distinct 61-bit prime denominators: one chain segment for the whole
    # stream would make every row sum over a lcm thousands of words wide
    import sympy

    primes = [sympy.nextprime(2**60)]
    while len(primes) < 3201:
        primes.append(sympy.nextprime(primes[-1]))
    rec = derive_recurrence(normalize_to_delta(parse_equation(CUBIC_THIRD)))
    sol = SeriesSolution.from_values([Fraction(1, p) for p in primes])
    with deadline(1):
        report = verify_recurrence(rec, sol, 3200 - rec.order)
    assert report.first_failing_row == rec.first_row


@functools.lru_cache(maxsize=None)
def _construction(q, p):
    return construct_equation(q, p)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_verification_on_the_support_matches_the_fraction_oracle(data):
    # streams on the multiples of M = 2..5: drawn values, or the prediction
    # of order M/p, which the rows at offset 0 accept.  One value off the
    # multiples makes some dense.  Verification reads only the window entries
    # on the support it detects; the oracle evaluates every entry
    modulus = data.draw(st.integers(2, 5))
    rho = data.draw(st.sampled_from([Fraction(0), Fraction(3, 2)]))
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from([p for p in range(modulus + 1, 10) if math.gcd(modulus, p) == 1]))
        built = _construction(modulus, p)
        rec = shifted_recurrence(built.canonical, rho)
        values = list(built.predicted_series.coeffs)
    else:
        rec = shifted_recurrence(random_equation(random.Random(data.draw(st.integers(0, 2**32)))), rho)
        values = None
    rows = rec.span + data.draw(st.integers(0, 20))
    top = rows + rec.order
    if values is None:
        values = [data.draw(small_rationals) if n % modulus == 0 else Fraction(0) for n in range(top + 1)]
    values = values[: top + 1]
    if data.draw(st.booleans()):
        values[data.draw(st.integers(1, top).filter(lambda n: n % modulus))] = data.draw(nonzero_rationals)
    sol = SeriesSolution.from_values(values, rho=rho)
    report = verify_recurrence(rec, sol, rows)
    assert (report.max_residual, report.first_failing_row) == oracle_verify(rec, sol, rows)
    assert report.rows_checked == rows + 1 - rec.first_row


# --- output reduction over the atoms' lcm ---------------------------------------


def _fields(values):
    return [(v.numerator, v.denominator) for v in values]


@contextmanager
def _atom_path_forced(ratio=0):
    # both constants at 0 send every value of every solve over its radix,
    # however narrow; a ratio above 0 sends those whose radix is narrow
    # enough.  The calls are counted
    calls = []

    def counted(num, den, radix):
        calls.append(radix)
        return reduced_fraction(num, den, radix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "ATOM_REDUCTION_BITS", 0)
        patch.setattr(series, "ATOM_WIDTH_RATIO", ratio)
        patch.setattr(series, "reduced_fraction", counted)
        yield calls


def _raw_streams(reduction, pinned):
    """The streams of a reduction's stored values, each value by Fraction(num, den), a zero value 0/1."""
    keys = [series._CONSTANTS] if pinned else reduction.free_ids
    return [[Fraction(num, den or 1) for num, den in zip(reduction.columns[key], reduction.dens)] for key in keys]


@settings(max_examples=200, deadline=None)
@given(rec=recurrences(min_roots=1), data=st.data())
def test_atom_reduction_matches_fraction_on_forced_solves(rec, data):
    # negative leads, zero-lead rows, and pins over one denominator: small
    # primes that the leads' values carry too, or primes only the pins bring
    count = rec.span + data.draw(st.integers(0, 24))
    if data.draw(st.booleans()):
        indices = data.draw(st.lists(st.integers(0, count), min_size=1, max_size=4, unique=True))
        den = data.draw(st.sampled_from([1, 2, 4, 6, 8, 9, 12, 27, 35, 97, 101 * 103]))
        initial = {idx: Fraction(data.draw(st.integers(-40, 40)), den) for idx in indices}
    else:
        initial = None
    try:
        reduction = RowReduction(rec, count, initial)
    except InconsistentSystemError:
        return
    expected = _raw_streams(reduction, initial is not None)
    with _atom_path_forced() as calls:
        actual = reduction.basis() if initial is None else [reduction.zeroed({})]
    assert len(calls) == len(expected) * len(reduction.dens)
    assert [_fields(sol.coeffs) for sol in actual] == [_fields(stream) for stream in expected]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rec=recurrences(min_roots=2, max_order=4), data=st.data())
def test_prefix_radices_reduce_every_value_of_a_solve(rec, data):
    # each value is reduced over the lcm of the atoms made before it was last
    # written.  Two vanishing leads eliminate, and their pivots rewrite values
    # made before them: a value that kept the mark of its first writing would
    # miss the pivot's primes.  Pins over primes that no lead carries make
    # more atoms, and more eliminations where a row determines their index.
    # A ratio above 0 leaves some values to Fraction, and the radix waits
    # for the next value that it is narrow enough for
    count = rec.span + data.draw(st.integers(4, 30))
    ratio = data.draw(st.sampled_from([0, 1, 2]))
    initial = None
    if data.draw(st.booleans()):
        indices = data.draw(st.lists(st.integers(0, count), min_size=1, max_size=5, unique=True))
        dens = st.sampled_from([1, 5, 7, 25, 49, 11 * 13, 97])
        initial = {idx: Fraction(data.draw(st.integers(-60, 60)), data.draw(dens)) for idx in indices}
    try:
        reduction = RowReduction(rec, count, initial)
    except InconsistentSystemError:
        return
    expected = _raw_streams(reduction, initial is not None)
    with _atom_path_forced(ratio):
        actual = solve_series(rec, count, initial)
    assert [_fields(sol.coeffs) for sol in actual] == [_fields(stream) for stream in expected]


def test_atom_reduction_cancels_the_primes_of_pins_at_free_indices():
    # a_{n+2} = a_{n+1} + a_n has leads 1: with a_0 = 1/97 and a_1 = 96/97
    # only the pin denominator names the 97 that a_2 = 97/97 cancels
    rec = CoefficientRecurrence(window_sums({-2: Poly([1]), -1: Poly([-1]), 0: Poly([-1])}))
    reduction = RowReduction(rec, 6, {0: Fraction(1, 97), 1: Fraction(96, 97)})
    with _atom_path_forced():
        coeffs = reduction.zeroed({}).coeffs
    assert _fields(coeffs) == _fields(_raw_streams(reduction, True)[0])
    assert coeffs[2] == 1


@st.composite
def smooth_fractions(draw):
    """(num, den, radix): den's primes all divide radix, num shares part of den's content."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3, unique=True))
    # prime powers split across atoms: 4 and 6 cover 2^2 * 3 together
    atoms = draw(
        st.sampled_from([[4, 6]])
        | st.lists(st.builds(lambda p, e: p**e, st.sampled_from(primes), st.integers(1, 3)), min_size=1, max_size=4)
    )
    radix = math.lcm(*atoms)
    smooth = [p for p in (2, 3, 5, 7, 11) if radix % p == 0]
    power = st.builds(lambda p, e: p**e, st.sampled_from(smooth), st.integers(0, 12))
    content = math.prod(draw(st.lists(power, max_size=4)))
    rest = math.prod(draw(st.lists(power, max_size=3)))
    # a stored denominator keeps only part of its content
    den = content * rest // draw(st.sampled_from([d for d in range(1, 50) if content % d == 0]))
    num = content * draw(st.integers(-(10**6), 10**6))
    sign = draw(st.sampled_from([1, -1]))
    return num, sign * den, radix


@settings(max_examples=400, deadline=None)
@given(case=smooth_fractions())
def test_reduced_fraction_matches_fraction(case):
    num, den, radix = case
    got, want = reduced_fraction(num, den, radix), Fraction(num, den)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)


def test_reduced_fraction_peels_powers_past_the_radix():
    # the content 2^5 * 3 over radix lcm(4, 6) = 12: one step removes 12, the
    # next 8 of the squared 144; zero and a negative denominator keep
    # Fraction's normal form
    assert _fields([reduced_fraction(-2**9 * 3 * 5, 2**5 * 3**2, 12)]) == _fields([Fraction(-2**9 * 15, 2**5 * 9)])
    assert _fields([reduced_fraction(0, -(2**40), 12)]) == [(0, 1)]
    assert _fields([reduced_fraction(7, -12, 12)]) == [(-7, 12)]
