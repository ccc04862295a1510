"""Exact coefficient streams for window recurrences, and growth estimation.

Generation runs an exact incremental row reduction in integer arithmetic,
fraction-free in the manner of Bareiss (Math. Comp. 22, 1968): rows come
from the recurrence as integers times its scale, and every stream value is
an integer affine combination of the free coefficients over one integer
denominator.  Each row either determines its deepest stream coefficient
(when the window's top entry is nonzero at that row) or becomes a linear
constraint that eliminates the newest free coefficient it involves.  Pins
enter where their index is created: as soon as a value is made, a new free
coefficient or a row's, its pin becomes a constraint, eliminated like a
zero-lead row, so that a pinned index no row determines holds its known
value.  A new value's content is divided by its gcd with the row's lead
value (or the pivot quotient of an elimination), a number a few words long,
so the content that does not divide it stays.

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

A stream is held in one form for both the reduction and verification:
integer numerator columns over one denominator list, 0 for a zero value.  A
finished stream has one column; the reduction has one per free parameter
and, in a pinned solve, one of constants.  A row of either is a sum over the
stream's denominator chain (:func:`polynomials.denominator_chain`), built
once per stream index: verification builds it once per call, and the
reduction extends it as values are stored and cuts it at the first value
that an elimination rewrites.  Both sum the row's (index, weight) pairs with
the one row kernel :func:`polynomials.chain_sum`, once per column, so every
column of a row shares one common denominator.  In a decaying stream each
denominator is a multiple of the one before, so a row sums by Horner's rule
over the quotients of neighbouring denominators, each a few words long, and
a row of k terms costs about k products of its running total by a few words.
Where denominators do not nest, as in every third value of QUARTIC_34's
pinned streams or in streams pinned to unrelated rationals, the chain
carries the running lcm instead, and starts a new segment before that lcm
grows past twice the width of the newest denominator; a row that crosses a
segment start joins its segment totals over their lcm.  Verification builds
a Fraction only for a nonzero residual, and reads only the window entries
that meet the stream's support: on a stream whose nonzero indices are the
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
from .polynomials import _int_log, as_rational, chain_sum, denominator_chain, stream_chain
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
    nums, chain = stream_chain(sol.coeffs[: need + 1])
    worst = Fraction(0)
    first_bad = None
    for n, row in rec.rows(rows, sol.support_modulus or 1):
        # rows list the deepest index first; the sum runs shallowest first
        common, total = chain_sum(chain, row[::-1], nums)
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


def _reduced(small: int, den: int, nums: list[int]) -> tuple[int, list[int]]:
    """A stream value's column numerators over ``den``, their content cut by ``small``.

    ``small`` divides ``den``: it is the row's lead value or the pivot
    quotient of an elimination, a few words long, so the gcd costs one
    big-by-small remainder per entry instead of a full gcd with ``den``.
    Content outside ``small`` stays in the stored value, and its primes all
    divide the reduction's atoms, over whose lcm the output reduces it
    (:meth:`RowReduction._fractions`).  A zero value is stored over 0.
    """
    if not any(nums):
        return 0, nums
    g = math.gcd(small, *nums)
    if g == 1:
        return den, nums
    return den // g, [v // g for v in nums]


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


#: The key of a pinned solve's constant column: below every free parameter's stream index.
_CONSTANTS = -1


class RowReduction:
    """Fraction-free elimination of the window rows and pins (after Bareiss).

    Every stream value is an affine combination of free parameters over one
    integer denominator, stored in columns aligned with the stream:
    ``dens[k]`` is value k's denominator, 0 for a zero value as
    :func:`polynomials.denominator_chain` reads it, and ``columns`` holds one
    numerator list per free parameter, keyed by its stream index, after a
    pinned solve's constants under ``_CONSTANTS``; a basis solve has no
    constant column, and a zero value has 0 in every column.  A row sums every
    column over the same (index, weight) pairs (see the module docstring).  A
    nonzero lead value determines the next stream value; a zero lead turns the
    row into a constraint for :meth:`_eliminate`.  Pins given at creation enter
    where their index is made: each value, a new free parameter or a row's, is
    stored and then held to its pin by the same elimination.  Each constraint
    removes the newest free parameter it involves, so the eliminated set is
    the set of leading columns of all constraints together, whatever order
    they arrive in.  Each new value's content is divided by the row's lead or
    the pivot quotient only (see :func:`_reduced`).  ``free_ids``, the keys of
    the other columns in the order they were made, lists the free parameters
    that survive.  ``atoms`` lists the leads and pivots in the order they are
    made, and ``marks[k]`` counts the atoms made when value k was last
    written: a lead is recorded just before its value, and a pivot before the
    values it rewrites, so every prime of that value's denominator divides one
    of ``atoms[: marks[k]]``.  Fractions are built only for the streams that
    ``zeroed`` and ``basis`` return, each value reduced once, over the lcm of
    its atoms where that is measured to pay, else by ``Fraction(num, den)``
    (:meth:`_fractions`).  The rows are read with ``keep``, so that they stay
    on the recurrence for the verifications of its streams.
    :func:`solve_series` is its only caller; a constraint that fails with no
    free parameter left raises InconsistentSystemError.
    """

    def __init__(self, rec: CoefficientRecurrence, count: int, initial=None):
        if count < rec.span:
            raise InsufficientDataError(
                f"truncation {count} is below the window span {rec.span}"
            )
        self.rec = rec
        self.pins = {} if initial is None else _checked_pins(initial, count)
        self.dens: list[int] = []
        self.columns: dict[int, list[int]] = {} if initial is None else {_CONSTANTS: []}
        # every prime of every stored denominator divides one of these ...
        self.atoms: list[int] = []
        # ... and every prime of dens[k] divides one of atoms[: marks[k]]
        self.marks: list[int] = []
        # the denominator chain of the stored values, extended as rows read
        # them; an elimination cuts it at the first value it rewrites
        self.chain: tuple[list[int], list[int], list[int]] = ([], [], [])
        for n, row in rec.rows(count - rec.order, keep=True):
            top = n + rec.order
            while len(self.dens) < top:
                self._append_free()
            self._add_row(row, top)
        while len(self.dens) <= count:
            self._append_free()

    @property
    def free_ids(self) -> list[int]:
        return [key for key in self.columns if key != _CONSTANTS]

    def _append_free(self):
        """Append the next value no row determines, a new free parameter: 1 in its own column."""
        idx = len(self.dens)
        self.columns[idx] = [0] * idx
        self._append(1, [0] * (len(self.columns) - 1) + [1])

    def _append(self, den: int, nums: list[int]):
        """Store the next value, nums[j] in the j-th column over ``den``, and impose its pin.

        A pin p/q becomes the constraint q * value - p = 0, eliminated like a
        zero-lead row: at a free parameter's index, the value is then p/q.
        """
        k = len(self.dens)
        self.dens.append(den)
        for column, num in zip(self.columns.values(), nums):
            column.append(num)
        self.marks.append(len(self.atoms))
        wanted = self.pins.get(k)
        if wanted is not None:
            constraint = {key: column[k] * wanted.denominator for key, column in self.columns.items()}
            # the value's own denominator: a zero value, stored over 0, is 0/1 here
            constraint[_CONSTANTS] -= wanted.numerator * (den or 1)
            self._eliminate(constraint)

    def _add_row(self, row, top: int):
        """Impose sum row_value * a_idx = 0 on the stream."""
        # rows list the deepest index first, top itself where its value is nonzero
        lead = row[0][1] if row and row[0][0] == top else 0
        terms = row[:0:-1] if lead else row[::-1]
        chain = denominator_chain(self.dens[len(self.chain[0]) :], self.chain)
        common, totals = 1, {}
        for key, column in self.columns.items():
            common, totals[key] = chain_sum(chain, terms, column)
        if not lead:
            self._eliminate(totals)
            return
        self.atoms.append(lead)
        self._append(*_reduced(lead, common * lead, [-total for total in totals.values()]))

    def _eliminate(self, totals: dict[int, int]):
        """Impose sum totals[key] * column_key = 0 by solving it for its newest free parameter.

        The constant column counts as 1.  Every stored value that involves
        that parameter is rewritten over the pivot quotient, and its column
        is dropped.  With no free parameter left, a nonzero constant raises
        InconsistentSystemError.
        """
        target = max((key for key, total in totals.items() if total), default=None)
        if target is None:
            return
        if target == _CONSTANTS:
            raise InconsistentSystemError("rows force a nonzero constant")
        pivot = totals.pop(target)
        self.atoms.append(pivot)
        for k, w in enumerate(self.columns.pop(target)):
            if not w:
                continue
            for part in self.chain:  # from the first value rewritten on
                del part[k:]
            g = math.gcd(w, pivot)
            p, w = pivot // g, w // g
            nums = [column[k] * p - w * totals[key] for key, column in self.columns.items()]
            self.dens[k], nums = _reduced(p, self.dens[k] * p, nums)
            for column, num in zip(self.columns.values(), nums):
                column[k] = num
            self.marks[k] = len(self.atoms)

    def _fractions(self, columns: list[list[int]]) -> list[list[Fraction]]:
        """The Fractions column[k] / dens[k] of each column, for every stored value k.

        Where every numerator stays below ``ATOM_REDUCTION_BITS`` each is
        built by ``Fraction``.  Otherwise value k is reduced over its radix,
        the lcm of ``atoms[: marks[k]]``, by :func:`reduced_fraction`, unless
        that radix is not ``ATOM_WIDTH_RATIO`` times narrower than its
        denominator.  The values are taken in mark order, so one running lcm
        serves them all and grows to the lcm of every atom only for the last.
        """
        dens = [den or 1 for den in self.dens]  # a zero value's numerators are 0
        if max((num.bit_length() for column in columns for num in column), default=0) < ATOM_REDUCTION_BITS:
            return [[Fraction(num, den) for num, den in zip(column, dens)] for column in columns]
        out = [[_ZERO] * len(dens) for _ in columns]
        radix, made = 1, 0
        for k in sorted(range(len(dens)), key=self.marks.__getitem__):
            den = dens[k]
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
        """The stream with every surviving free parameter zero: its constant column."""
        (coeffs,) = self._fractions([self.columns[_CONSTANTS]])
        return SeriesSolution(rho_offset=self.rec.rho_offset, coeffs=tuple(coeffs), provenance=provenance)

    def basis(self) -> list[SeriesSolution]:
        """One stream per surviving free parameter f, with a_f = 1: its column."""
        rho = self.rec.rho_offset
        return [
            SeriesSolution(rho_offset=rho, coeffs=tuple(coeffs), provenance={"free": {fid: Fraction(1)}})
            for fid, coeffs in zip(self.columns, self._fractions(list(self.columns.values())))
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
    solution = reduction.zeroed({"pinned": dict(sorted(reduction.pins.items()))})
    for idx, wanted in reduction.pins.items():
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
