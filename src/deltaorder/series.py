"""Exact coefficient streams for window recurrences, and growth estimation.

Generation runs an exact incremental row reduction in integer arithmetic,
fraction-free in the manner of Bareiss (Math. Comp. 22, 1968): rows come
from the recurrence as integers times its scale, and every stream value is
an integer affine combination of the free coefficients over one integer
denominator.  Each row either determines its deepest stream coefficient
(when the window's top entry is nonzero at that row) or becomes a linear
constraint that eliminates the newest free coefficient it involves.  Pins
enter where their index is created: a pinned index that no row determines
is stored as its known value, not as a free coefficient, and a pinned index
that a row determines becomes a constraint, eliminated like a zero-lead
row, as soon as its value is made.  A new value's content is divided by its
gcd with the row's lead value (or the pivot quotient of an elimination), a
number a few words long, so the content that does not divide it stays.

The exact reduction is made once, at output, and without a full-width gcd
where that pays.  Every stored denominator is built from three kinds of
atoms: each row's nonzero lead, each elimination's pivot and each pin
denominator.  A new value's denominator is the row's common denominator,
whose primes come from earlier denominators, times its lead, and an
elimination multiplies by a divisor of its pivot; each atom is recorded
before the value it enters, so every prime of a stored denominator divides
an atom made before that value was last written.  The output therefore
reduces each value over its radix, the lcm of those atoms, taking the values
in the order they were last written so that one running lcm serves them
all: gcd(num mod radix, radix) names the primes that value can lose, small
gcds taken over remainders peel them off, and the Fraction is built without
a second gcd (:func:`reduced_fraction`).  Where the output numerators stay
below ``ATOM_REDUCTION_BITS``, or a value's radix is not
``ATOM_WIDTH_RATIO`` times narrower than its denominator, the full gcd of
``Fraction(num, den)`` is cheaper and is kept.  The result
is a basis of the truncated solution space, or the stream pinned to given
initial data with the surviving free coefficients zeroed.  The rows are
homogeneous, as the equations are.  :func:`solve_series` is the reduction's
only caller; checking a given stream against the rows is verification's
job, which needs no reduction.  The solver keeps the rows it reads on its
recurrence (:meth:`CoefficientRecurrence.rows`), so that verifying its
streams evaluates the window no second time.

A row of the reduction and a row of verification are both sums over one
stream's denominator chain (:func:`polynomials.denominator_chain`), built
once per stream index: verification builds it once per call, and the
reduction extends it as values are stored and cuts it at the first value
that an elimination rewrites.  Both sum with the one row kernel
:func:`polynomials.chain_sum`: verification over a finished stream's integer
numerators, the reduction, whose values are affine in the free parameters,
once per free parameter over its weights and, where one is nonzero, once
over their constants.  Every column of a row sums the same indices, so all
share one common denominator.  In a decaying stream each denominator is a
multiple of the one before, so a row sums by Horner's rule over the
quotients of neighbouring denominators, each a few words long, and a row of
k terms costs about k products of its running total by a few words.  Where
denominators do not nest, as in every third value of QUARTIC_34's pinned
streams or in streams pinned to unrelated rationals, the chain carries the
running lcm instead, and starts a new segment before that lcm grows past
twice the width of the newest denominator; a row that crosses a segment
start joins its segment totals over their lcm.  Verification builds a
Fraction only for a nonzero residual, and reads only the window entries that
meet the stream's support: on a stream whose nonzero indices are the
multiples of M, one entry in M.

The growth quantity of a stream -- the reciprocal slope of -log|a_n| against
n log n -- is estimated by a least-squares fit with nuisance terms in n,
log n, and 1 over the trailing half of the nonzero subsequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._record import Record, _set
from .errors import InconsistentSystemError, InsufficientDataError
from .polynomials import _int_log, as_rational, chain_sum, denominator_chain
from .recurrences import CoefficientRecurrence


@dataclass(frozen=True)
class SeriesSolution:
    """A truncated exact coefficient stream a_0..a_N.

    ``support_modulus`` is the arithmetic-progression support of the
    coefficients (the gcd of the nonzero indices) when it exceeds one, else
    None; it is set from ``coeffs`` at construction and is not a parameter.
    ``provenance`` is the free/pinned initial data that generated the stream
    (empty for hand-built streams).

    It stays a frozen dataclass while the package's other records do not:
    callers derive a changed stream with ``dataclasses.replace(sol,
    coeffs=...)``, which sets the modulus again from the new coefficients,
    and the benchmark's corruption selftest does exactly that.  Only the
    commands that read or write a stream import this module.
    """

    rho_offset: Fraction
    coeffs: tuple[Fraction, ...]
    support_modulus: int | None = field(init=False)
    provenance: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "support_modulus", detect_support_modulus(self.coeffs))

    @staticmethod
    def from_values(values, rho=0, provenance=None) -> SeriesSolution:
        coeffs = tuple(as_rational(v) for v in values)
        return SeriesSolution(rho_offset=as_rational(rho), coeffs=coeffs, provenance=provenance)


def detect_support_modulus(coeffs) -> int | None:
    """gcd of the nonzero indices when it exceeds one, else None."""
    g = 0
    for n, c in enumerate(coeffs):
        if n and c:
            g = math.gcd(g, n)
            if g == 1:
                return None
    return g if g >= 2 else None


class VerificationReport(Record):
    """Outcome of substituting a stream into every recurrence row."""

    __slots__ = ("rows_checked", "max_residual", "first_failing_row")

    def __init__(self, rows_checked: int, max_residual: Fraction, first_failing_row: int | None):
        _set(self, "rows_checked", rows_checked)
        _set(self, "max_residual", max_residual)
        _set(self, "first_failing_row", first_failing_row)

    @property
    def exact(self) -> bool:
        return self.first_failing_row is None


def verify_recurrence(rec: CoefficientRecurrence, sol: SeriesSolution, rows: int) -> VerificationReport:
    """Substitute the stream into rows first_row..rows; exact residuals.

    ``rows`` below ``rec.first_row`` raises ValueError, and the stream must
    reach index rows + order.  Returns the first failing row (if any) and
    the largest absolute residual encountered.  Each row sums the stream's
    integer numerators over its denominator chain, built once per call, with
    the one row kernel :func:`polynomials.chain_sum`; a residual becomes a
    Fraction only when that sum is nonzero.  The rows read only the window
    entries whose stream index is a multiple of ``sol.support_modulus``: an
    entry off it multiplies a zero coefficient.
    """
    if rows < rec.first_row:
        raise ValueError(f"rows {rows} is below the first row {rec.first_row}")
    need = rows + rec.order
    if len(sol.coeffs) < need + 1:
        raise InsufficientDataError(
            f"need {need + 1} coefficients to check {rows} rows"
        )
    coeffs = sol.coeffs[: need + 1]
    nums = [c.numerator for c in coeffs]
    chain = denominator_chain([c.denominator if c else 0 for c in coeffs])
    worst = Fraction(0)
    first_bad = None
    for n, row in rec.rows(rows, sol.support_modulus or 1):
        # rows list the deepest index first; the sum runs shallowest first
        common, total = chain_sum(chain, [(idx, c, num) for idx, c in reversed(row) if (num := nums[idx])])
        if total:
            if first_bad is None:
                first_bad = n
            residual = Fraction(abs(total), common * rec.scale)
            if residual > worst:
                worst = residual
    return VerificationReport(
        rows_checked=rows + 1 - rec.first_row,
        max_residual=worst,
        first_failing_row=first_bad,
    )


# --- exact solver -------------------------------------------------------------


def _reduced(small: int, den: int, const: int, lin: dict[int, int]):
    """A stream value (const + sum lin[f]*free_f) / den, its content cut by ``small``.

    ``small`` divides ``den``: it is the row's lead value or the pivot
    quotient of an elimination, a few words long, so the gcd costs one
    big-by-small remainder per entry instead of a full gcd with ``den``.
    Content outside ``small`` stays in the stored value, and its primes all
    divide the reduction's atoms, over whose lcm the output reduces it
    (:meth:`RowReduction._fractions`).  A zero value is stored as 0/1.
    """
    lin = {f: w for f, w in lin.items() if w}
    if not const and not lin:
        return 1, 0, lin
    g = math.gcd(small, const, *lin.values())
    if g == 1:
        return den, const, lin
    return den // g, const // g, {f: w // g for f, w in lin.items()}


#: Widest output numerator, in bits, from which a solve reduces its output
#: over the atoms' lcms; below it ``Fraction(num, den)`` makes its own gcd,
#: which costs little next to a narrow numerator.
ATOM_REDUCTION_BITS = 1024
#: A value's radix, the lcm of the atoms made before it was last written,
#: must be this many times narrower than its denominator for the reduction
#: over it to pay.
ATOM_WIDTH_RATIO = 4


if hasattr(Fraction, "_from_coprime_ints"):

    def _coprime_fraction(num: int, den: int) -> Fraction:
        """The Fraction num/den without a gcd: num and den coprime, den positive."""
        return Fraction._from_coprime_ints(num, den)

else:

    def _coprime_fraction(num: int, den: int) -> Fraction:
        """The Fraction num/den without a gcd: num and den coprime, den positive."""
        return Fraction(num, den, _normalize=False)


_ZERO = Fraction(0)


def reduced_fraction(num: int, den: int, radix: int) -> Fraction:
    """``Fraction(num, den)`` for a nonzero den each of whose primes divides ``radix``.

    A common factor of num and den is made of primes of ``radix``, all of
    which divide r = gcd(num, radix).  Each step divides num and den by
    h = gcd(r, num, den), taken over remainders mod r, and squares h into
    the next r, so a prime that divides more times than r holds is peeled
    off in a few steps; h = 1 leaves them coprime.
    """
    if den < 0:
        num, den = -num, -den
    if not num:
        return _ZERO
    r = math.gcd(num % radix, radix)
    while r > 1:
        h = math.gcd(r, num % r, den % r)
        if h == 1:
            break
        num //= h
        den //= h
        r = h * h
    return _coprime_fraction(num, den)


def _checked_pins(initial: dict, count: int) -> dict[int, Fraction]:
    """Pins as {index: Fraction}, their indices checked before any row is touched.

    A negative index raises ValueError, one past the truncation
    InsufficientDataError, the smallest offending index first.
    """
    pins = {int(k): as_rational(v) for k, v in initial.items()}
    for idx in sorted(pins):
        if idx < 0:
            raise ValueError(f"pinned index {idx} is negative")
        if idx > count:
            raise InsufficientDataError(f"pinned index {idx} beyond truncation")
    return pins


class RowReduction:
    """Fraction-free elimination of the window rows and pins (after Bareiss).

    Every stream value is an affine combination of free parameters, stored as
    (den, const, {free id: num}) over integers.  A row combines its window
    entries over the denominator chain of the stored values, summing each
    free parameter's weights and, where one is nonzero, the constants as
    columns of :func:`polynomials.chain_sum` over the same indices, zeros
    kept, so that every column has one common denominator.  A nonzero lead value
    determines the next stream value; a zero lead turns the row into a
    constraint for :meth:`_eliminate`.  Pins given at creation enter where
    their index is made: a pinned index that no row determines is stored as
    its value (q, p, {}) for p/q, not as a free parameter; a row-determined
    one adds the constraint "value = pin" to the same elimination.  Each
    constraint removes the newest free parameter it involves, so the
    eliminated set is the set of leading columns of all constraints
    together, whatever order they arrive in.  Each new value's content is
    divided by the row's lead or the pivot quotient only (see
    :func:`_reduced`).  ``free_ids`` lists the free parameters that survive.
    ``atoms`` lists the leads, pivots and pin denominators in the order they
    are made, and ``marks[k]`` counts the atoms made when ``values[k]`` was
    last written: a lead or pin denominator is recorded just before its
    value, and a pivot before the values it rewrites, so every prime of that
    value's denominator divides one of ``atoms[: marks[k]]``.  Fractions are
    built only for the streams that ``zeroed`` and ``basis`` return, each
    value reduced once, over the lcm of its atoms where that is measured to
    pay, else by ``Fraction(num, den)`` (:meth:`_fractions`).  The rows are
    read with ``keep``, so that they stay on the recurrence for the
    verifications of its streams.  :func:`solve_series` is its only caller;
    a constraint that fails with no free parameter left raises
    InconsistentSystemError.
    """

    def __init__(self, rec: CoefficientRecurrence, count: int, initial=None):
        if count < rec.span:
            raise InsufficientDataError(
                f"truncation {count} is below the window span {rec.span}"
            )
        self.rec = rec
        self.pins = {} if initial is None else _checked_pins(initial, count)
        self.values: list[tuple[int, int, dict[int, int]]] = []
        self.free_ids: list[int] = []
        # every prime of every stored denominator divides one of these ...
        self.atoms: list[int] = []
        # ... and every prime of values[k]'s divides one of atoms[: marks[k]]
        self.marks: list[int] = []
        # the denominator chain of the stored values, extended as rows read
        # them; an elimination cuts it at the first value it rewrites
        self.chain: tuple[list[int], list[int], list[int]] = ([], [], [])
        for n, row in rec.rows(count - rec.order, keep=True):
            top = n + rec.order
            while len(self.values) < top:
                self._append_free()
            self._add_row(row, top)
        while len(self.values) <= count:
            self._append_free()

    def _append_free(self):
        """Append the next value no row determines: its pin, else a new free parameter."""
        idx = len(self.values)
        wanted = self.pins.get(idx)
        if wanted is not None:
            self.atoms.append(wanted.denominator)
            self.values.append((wanted.denominator, wanted.numerator, {}))
            self.marks.append(len(self.atoms))
            return
        self.values.append((1, 0, {idx: 1}))
        self.marks.append(0)
        self.free_ids.append(idx)

    def _add_row(self, row, top: int):
        """Impose sum row_value * a_idx = 0 on the stream."""
        lead = 0
        terms = []
        free = set()
        # shallowest index first; zero values are stored 0/1 and summed by no row
        for idx, c in reversed(row):
            if idx == top:
                lead = c
            elif (value := self.values[idx])[1] or value[2]:
                terms.append((idx, c, value))
                free.update(value[2])
        fresh = self.values[len(self.chain[0]) :]
        chain = denominator_chain([den if vconst or vlin else 0 for den, vconst, vlin in fresh], self.chain)
        # every column sums the same indices, its zeros kept, so all share one
        # common; the constants are summed only where one is nonzero, which in
        # a basis solve none is
        common, const, lin = 1, 0, {}
        for f in free:
            common, lin[f] = chain_sum(chain, [(idx, c, value[2].get(f, 0)) for idx, c, value in terms])
        if any(value[1] for _, _, value in terms):
            common, const = chain_sum(chain, [(idx, c, value[1]) for idx, c, value in terms])
        if not lead:
            self._eliminate(const, lin)
            return
        self.atoms.append(lead)
        den, vconst, vlin = _reduced(lead, common * lead, -const, {f: -w for f, w in lin.items()})
        self.values.append((den, vconst, vlin))
        self.marks.append(len(self.atoms))
        wanted = self.pins.get(top)
        if wanted is not None:
            q = wanted.denominator
            self._eliminate(vconst * q - wanted.numerator * den, {f: w * q for f, w in vlin.items()})

    def _eliminate(self, const: int, lin: dict[int, int]):
        """Impose const + sum lin[f]*free_f = 0 by solving it for its newest free parameter.

        Every stored value that involves that parameter is rewritten over the
        pivot quotient.  With no free parameter left, a nonzero constant
        raises InconsistentSystemError.
        """
        live = {f: w for f, w in lin.items() if w}
        if not live:
            if const:
                raise InconsistentSystemError("rows force a nonzero constant")
            return
        target = max(live)
        pivot = live.pop(target)
        self.atoms.append(pivot)
        self.free_ids.remove(target)
        for k, (den, vconst, vlin) in enumerate(self.values):
            w = vlin.get(target)
            if w is None:
                continue
            for part in self.chain:  # from the first value rewritten on
                del part[k:]
            g = math.gcd(w, pivot)
            p, w = pivot // g, w // g
            nlin = {f: v * p for f, v in vlin.items() if f != target}
            for f, v in live.items():
                nlin[f] = nlin.get(f, 0) - w * v
            self.values[k] = _reduced(p, den * p, vconst * p - w * const, nlin)
            self.marks[k] = len(self.atoms)

    def _fractions(self, columns: list[list[int]]) -> list[list[Fraction]]:
        """The Fractions column[k] / den_k of each column, for every stored value k.

        Where every numerator stays below ``ATOM_REDUCTION_BITS`` each is
        built by ``Fraction``.  Otherwise value k is reduced over its radix,
        the lcm of ``atoms[: marks[k]]``, by :func:`reduced_fraction`, unless
        that radix is not ``ATOM_WIDTH_RATIO`` times narrower than its
        denominator.  The values are taken in mark order, so one running lcm
        serves them all and grows to the lcm of every atom only for the last.
        """
        values = self.values
        if max((num.bit_length() for column in columns for num in column), default=0) < ATOM_REDUCTION_BITS:
            return [[Fraction(num, den) for num, (den, _, _) in zip(column, values)] for column in columns]
        out = [[_ZERO] * len(values) for _ in columns]
        radix, made = 1, 0
        for k in sorted(range(len(values)), key=self.marks.__getitem__):
            den = values[k][0]
            # the radix divides the value's own, so a radix already too wide
            # needs no atoms more; those that wait join it in one lcm
            if made < (mark := self.marks[k]) and radix.bit_length() * ATOM_WIDTH_RATIO <= den.bit_length():
                radix = math.lcm(radix, math.lcm(*self.atoms[made:mark]))
                made = mark
            if radix.bit_length() * ATOM_WIDTH_RATIO > den.bit_length():
                for stream, column in zip(out, columns):
                    stream[k] = Fraction(column[k], den)
            else:
                for stream, column in zip(out, columns):
                    stream[k] = reduced_fraction(column[k], den, radix)
        return out

    def zeroed(self, provenance: dict) -> SeriesSolution:
        """The stream with every surviving free parameter zero: each value's constant over its denominator."""
        (coeffs,) = self._fractions([[vconst for _, vconst, _ in self.values]])
        return SeriesSolution(rho_offset=self.rec.rho_offset, coeffs=tuple(coeffs), provenance=provenance)

    def basis(self) -> list[SeriesSolution]:
        """One stream per surviving free parameter f, with a_f = 1."""
        rho = self.rec.rho_offset
        columns = [[vlin.get(fid, 0) for _, _, vlin in self.values] for fid in self.free_ids]
        return [
            SeriesSolution(rho_offset=rho, coeffs=tuple(coeffs), provenance={"free": {fid: Fraction(1)}})
            for fid, coeffs in zip(self.free_ids, self._fractions(columns))
        ]


def solve_series(
    rec: CoefficientRecurrence, count: int, initial: dict[int, Fraction] | None = None
) -> list[SeriesSolution]:
    """Generate the truncated solution space of a recurrence, exactly.

    ``count`` is the largest stream index (a_0..a_count are produced) and
    must cover the window span.  Without ``initial`` the result is a basis of
    the solution space, one stream per surviving free parameter.  With
    ``initial`` the pinned values select a single stream (remaining freedom
    is zeroed); contradictory pins raise InconsistentSystemError.  The pins
    enter the row reduction where their indices are made, through the
    elimination that zero-lead rows use, and their indices are checked
    before any row.

    An empty list means only the identically-zero stream survives.
    """
    reduction = RowReduction(rec, count, initial)
    if initial is None:
        return reduction.basis()
    pins = reduction.pins
    solution = reduction.zeroed({"pinned": dict(sorted(pins.items()))})
    for idx, wanted in pins.items():
        if solution.coeffs[idx] != wanted:
            raise RuntimeError(f"pinned value at index {idx} was not reproduced")
    return [solution]


# --- growth estimation --------------------------------------------------------


class GrowthEstimate(Record):
    """Fitted decay profile of a coefficient stream.

    ``chi_hat`` is the reciprocal of the fitted n log n slope (the growth
    order of the limit function when below one); infinite when the stream
    does not super-exponentially decay.  ``converged`` means only a positive
    slope and a finite residual, not a fit on a branch of the polygon: a
    stream whose polygon has chi 1 and 1/5 can fit 1.103 with converged true.
    Both are set here, from the slope mu = ``model_params[0]`` and the
    residual.
    """

    __slots__ = ("chi_hat", "fit_window", "model_params", "residual", "converged")

    def __init__(
        self,
        fit_window: tuple[int, int],
        model_params: tuple[float, float, float, float],
        residual: float,
    ):
        mu = model_params[0]
        if mu <= 0:
            chi_hat = math.inf
            converged = False
        else:
            chi_hat = 1.0 / mu
            converged = math.isfinite(residual)
        _set(self, "chi_hat", chi_hat)
        _set(self, "fit_window", fit_window)
        _set(self, "model_params", model_params)
        _set(self, "residual", residual)
        _set(self, "converged", converged)


#: Nonzero coefficients that ``estimate_chi`` needs for a fit.
MIN_CHI_TERMS = 64


def estimate_chi(coeffs) -> GrowthEstimate:
    """Fit -log|a_n| = mu*n*log n + beta*n + gamma*log n + delta, trailing half.

    The coefficients are exact (ints or Fractions).  log|a_n| is the log of
    the integer numerator minus that of the denominator, each taken on its
    leading 60 bits past 512 bits, so no float overflows.  Zero coefficients
    are skipped (arithmetic-progression supports are fine); at least
    ``MIN_CHI_TERMS`` nonzero terms are required.  A non-positive fitted
    slope is reported as chi_hat = inf with converged False.
    """
    nonzero = [(n, c) for n, c in enumerate(coeffs) if c]
    if len(nonzero) < MIN_CHI_TERMS:
        raise InsufficientDataError(
            f"need at least {MIN_CHI_TERMS} nonzero coefficients, have {len(nonzero)}"
        )
    tail = [(n, _int_log(abs(c.numerator)) - _int_log(c.denominator)) for n, c in nonzero[len(nonzero) // 2 :]]
    import numpy as np

    ns = np.array([float(n) for n, _ in tail])
    ys = np.array([-logmag for _, logmag in tail])
    logn = np.log(ns)
    design = np.column_stack([ns * logn, ns, logn, np.ones_like(ns)])
    params, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ params
    return GrowthEstimate(
        fit_window=(tail[0][0], tail[-1][0]),
        model_params=tuple(float(x) for x in params),
        residual=float(np.sqrt(np.mean((ys - fitted) ** 2))),
    )
