"""The integer row kernel of the solver against a Fraction oracle.

The oracle below is the plain rational algorithm: rows evaluated as
Fractions, stream values kept as affine combinations of free parameters in
Fractions, a zero-lead row eliminating its newest free parameter, pins
eliminated in index order and the remaining freedom zeroed.  The kernel must
reproduce its streams, provenance and verification reports exactly.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder import CoefficientRecurrence, Poly, SeriesSolution, solve_series, verify_recurrence
from deltaorder.errors import InconsistentSystemError
from deltaorder.polynomials import as_rational


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


def oracle_solve(rec, count, initial=None, rhs=None):
    state = OracleState()
    for n in range(rec.first_row, count - rec.order + 1):
        top = n + rec.order
        while len(state.values) < top:
            state.append_free()
        const = -as_rational(rhs[n]) if rhs is not None and 0 <= n < len(rhs) else Fraction(0)
        lin, lead = {}, Fraction(0)
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
        pinned = {k: str(v) for k, v in sorted(initial.items())}
        return [SeriesSolution.from_values(stream, rho=rho, provenance={"pinned": pinned})]
    solutions = []
    if rhs is not None:
        particular = [vconst for vconst, _ in state.values[: count + 1]]
        solutions.append(
            SeriesSolution.from_values(particular, rho=rho, provenance={"particular": True})
        )
    for fid in state.free_ids:
        stream = [vlin.get(fid, Fraction(0)) for _, vlin in state.values[: count + 1]]
        if any(stream):
            solutions.append(
                SeriesSolution.from_values(stream, rho=rho, provenance={"free": {fid: Fraction(1)}})
            )
    return solutions


def oracle_verify(rec, sol, rows, rhs=None):
    worst, first_bad = Fraction(0), None
    for n in range(rec.first_row, rows + 1):
        total = sum((c * sol.coeffs[idx] for idx, c in oracle_row(rec, n)), Fraction(0))
        if rhs is not None and 0 <= n < len(rhs):
            total -= as_rational(rhs[n])
        if total != 0:
            first_bad = n if first_bad is None else first_bad
            worst = max(worst, abs(total))
    return worst, first_bad


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except InconsistentSystemError:
        return InconsistentSystemError


small_rationals = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)
nonzero_rationals = st.builds(
    Fraction, st.integers(1, 9) | st.integers(-9, -1), st.sampled_from([1, 2, 3, 4, 6, 9])
)


@st.composite
def recurrences(draw):
    rho = draw(st.sampled_from([Fraction(0), Fraction(3, 2), Fraction(7, 3)]))
    order = draw(st.integers(1, 3))
    max_index = draw(st.integers(0, 3))
    first_row = 0 if rho == 0 else -order
    # the deepest entry may vanish at a few rows, which makes them constraints
    lead = Poly([draw(nonzero_rationals)])
    for root in draw(st.lists(st.integers(first_row, first_row + 8), max_size=2)):
        lead = lead * Poly([-root, 1])
    window = {-order: lead}
    for i in range(-order + 1, max_index + 1):
        window[i] = Poly(draw(st.lists(small_rationals, max_size=3)))
    return CoefficientRecurrence(window=window, rho_offset=rho)


@settings(max_examples=200, deadline=None)
@given(rec=recurrences(), data=st.data())
def test_integer_kernel_matches_fraction_oracle(rec, data):
    count = rec.span + data.draw(st.integers(0, 12))
    for n in range(rec.first_row, count + 1):
        assert rec.row(n) == [(idx, c * rec.scale) for idx, c in oracle_row(rec, n)]
    rhs = data.draw(st.none() | st.lists(small_rationals, max_size=count + 2))
    if data.draw(st.booleans()):
        # pins on the first few indices usually hit free parameters and agree
        highest = data.draw(st.sampled_from([min(rec.order, count), count]))
        indices = data.draw(st.lists(st.integers(0, highest), max_size=4, unique=True))
        initial = {idx: data.draw(small_rationals) for idx in indices}
    else:
        initial = None
    expected = _outcome(oracle_solve, rec, count, initial=initial, rhs=rhs)
    actual = _outcome(solve_series, rec, count, initial=initial, rhs=rhs)
    assert actual == expected
    if expected is InconsistentSystemError:
        return
    rows = count - rec.order
    streams = list(expected)
    # a random stream leaves nonzero residuals to compare
    noise = data.draw(st.lists(small_rationals, min_size=count + 1, max_size=count + 1))
    streams.append(SeriesSolution.from_values(noise, rho=rec.rho_offset))
    for sol in streams:
        report = verify_recurrence(rec, sol, rows, rhs=rhs)
        assert (report.max_residual, report.first_failing_row) == oracle_verify(rec, sol, rows, rhs)
        assert report.rows_checked == rows + 1 - rec.first_row
