"""Exact coefficient streams for window recurrences, and growth estimation.

Generation runs an exact incremental row reduction in integer arithmetic,
fraction-free in the manner of Bareiss (Math. Comp. 22, 1968): rows come
from the recurrence as integers times its scale, and every stream value is
an integer affine combination of the free coefficients over one integer
denominator, with its content divided out.  Each row either determines its
deepest stream coefficient (when the window's top entry is nonzero at that
row) or becomes a linear constraint that eliminates a free coefficient.  The
result is a basis of the truncated solution space, optionally pinned to
given initial data, with inhomogeneous right-hand sides supported.  A
Fraction is built once per returned coefficient; verification likewise sums
integer numerators and builds a Fraction only for a nonzero residual.

The growth quantity of a stream -- the reciprocal slope of -log|a_n| against
n log n -- is estimated by a least-squares fit with nuisance terms in n,
log n, and 1 over the trailing half of the nonzero subsequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InconsistentSystemError, InsufficientDataError
from .polynomials import as_rational, fraction_log_abs
from .recurrences import CoefficientRecurrence


@dataclass(frozen=True)
class SeriesSolution:
    """A truncated exact coefficient stream a_0..a_N.

    ``support_modulus`` records arithmetic-progression support (all nonzero
    indices divisible by it) when it exceeds one.  ``provenance`` is the
    free/pinned initial data that generated the stream (empty for hand-built
    streams).
    """

    rho_offset: Fraction
    coeffs: tuple[Fraction, ...]
    support_modulus: int | None = None
    provenance: dict | None = None

    @staticmethod
    def from_values(values, rho=0, provenance=None) -> SeriesSolution:
        coeffs = tuple(as_rational(v) for v in values)
        return SeriesSolution(
            rho_offset=as_rational(rho),
            coeffs=coeffs,
            support_modulus=detect_support_modulus(coeffs),
            provenance=provenance,
        )


def detect_support_modulus(coeffs) -> int | None:
    """gcd of the nonzero indices when it exceeds one, else None."""
    g = 0
    for n, c in enumerate(coeffs):
        if n and c != 0:
            g = math.gcd(g, n)
            if g == 1:
                return None
    return g if g >= 2 else None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of substituting a stream into every recurrence row."""

    rows_checked: int
    max_residual: Fraction
    first_failing_row: int | None

    @property
    def exact(self) -> bool:
        return self.first_failing_row is None


def verify_recurrence(
    rec: CoefficientRecurrence, sol: SeriesSolution, rows: int, rhs=None
) -> VerificationReport:
    """Substitute the stream into rows first_row..rows; exact residuals.

    The stream must reach index rows + order.  Returns the first failing row
    (if any) and the largest absolute residual encountered.  Each row sums
    integer numerators over the lcm of its stream denominators; a residual
    becomes a Fraction only when that sum is nonzero.
    """
    need = rows + rec.order
    if len(sol.coeffs) < need + 1:
        raise InsufficientDataError(
            f"need {need + 1} coefficients to check {rows} rows"
        )
    nums = [c.numerator for c in sol.coeffs]
    dens = [c.denominator for c in sol.coeffs]
    worst = Fraction(0)
    first_bad = None
    for n in range(rec.first_row, rows + 1):
        terms = [(c, idx) for idx, c in rec.row(n) if nums[idx]]
        target = _rhs_value(rhs, n)
        common = _lcm(target.denominator, *(dens[idx] for _, idx in terms))
        total = sum(c * nums[idx] * (common // dens[idx]) for c, idx in terms)
        if target:
            total -= rec.scale * target.numerator * (common // target.denominator)
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


def _rhs_value(rhs, n: int):
    """Right-hand side of row n: a rational, or 0 for rows beyond ``rhs`` and below 0."""
    return as_rational(rhs[n]) if rhs is not None and 0 <= n < len(rhs) else 0


def _lcm(*dens: int) -> int:
    """lcm of nonzero integers; a value that divides the running lcm costs one division.

    Rows list the deepest stream index first, and in a decaying stream the
    earlier denominators often divide the later ones, so most steps skip the
    gcd.
    """
    out = 1
    for d in dens:
        if out % d:
            out = math.lcm(out, d)
    return out


# --- exact solver -------------------------------------------------------------


def _reduced(den: int, const: int, lin: dict[int, int]):
    """A stream value (const + sum lin[f]*free_f) / den with its content divided out."""
    lin = {f: w for f, w in lin.items() if w}
    g = math.gcd(den, const, *lin.values())
    if g == 1:
        return den, const, lin
    return den // g, const // g, {f: w // g for f, w in lin.items()}


def _pivot(const: int, lin: dict[int, int]):
    """The substitution that solves const + sum lin[f]*free_f = 0 for its newest free.

    Returns (target, const, live, pivot), meaning
    free_target = -(const + sum live[f]*free_f) / pivot, or None when no
    free parameter is involved and the constraint holds.
    """
    live = {f: w for f, w in lin.items() if w}
    if not live:
        if const:
            raise InconsistentSystemError("rows force a nonzero constant")
        return None
    target = max(live)
    pivot = live.pop(target)
    return target, const, live, pivot


def _substitute(values, target: int, const: int, live: dict[int, int], pivot: int):
    """Apply the substitution of :func:`_pivot` to every value in place."""
    for k, (den, vconst, vlin) in enumerate(values):
        w = vlin.get(target)
        if w is None:
            continue
        g = math.gcd(w, pivot)
        p, w = pivot // g, w // g
        nlin = {f: v * p for f, v in vlin.items() if f != target}
        for f, v in live.items():
            nlin[f] = nlin.get(f, 0) - w * v
        values[k] = _reduced(den * p, vconst * p - w * const, nlin)


class RowReduction:
    """Fraction-free elimination of the window rows (after Bareiss).

    Every stream value is an affine combination of free parameters, stored as
    (den, const, {free id: num}) over integers with its content divided out.
    A row combines its window entries over the lcm of their denominators and
    subtracts its right-hand side times the recurrence scale: a nonzero lead
    value determines the next stream value; a zero lead turns the row into a
    constraint that eliminates the newest free parameter it involves.
    ``free_ids`` lists the free parameters that survive all rows.  Fractions
    are built only for the streams that ``pin`` and ``basis`` return.
    """

    def __init__(self, rec: CoefficientRecurrence, count: int, rhs=None):
        if count < rec.span:
            raise InsufficientDataError(
                f"truncation {count} is below the window span {rec.span}"
            )
        self.rec = rec
        self.count = count
        self.inhomogeneous = rhs is not None
        self.values: list[tuple[int, int, dict[int, int]]] = []
        self.free_ids: list[int] = []
        for n in range(rec.first_row, count - rec.order + 1):
            top = n + rec.order
            while len(self.values) < top:
                self._append_free()
            self._add_row(rec.row(n), top, _rhs_value(rhs, n))
        while len(self.values) <= count:
            self._append_free()

    def _append_free(self):
        fid = len(self.values)
        self.values.append((1, 0, {fid: 1}))
        self.free_ids.append(fid)

    def _add_row(self, row, top: int, target):
        """Impose sum row_value * a_idx = scale * target on the stream."""
        lead = 0
        terms = []
        for idx, c in row:
            if idx == top:
                lead = c
            else:
                terms.append((c, self.values[idx]))
        common = _lcm(target.denominator, *(den for _, (den, _, _) in terms))
        const = -self.rec.scale * target.numerator * (common // target.denominator)
        lin: dict[int, int] = {}
        for c, (den, vconst, vlin) in terms:
            factor = c * (common // den)
            const += factor * vconst
            for f, w in vlin.items():
                lin[f] = lin.get(f, 0) + factor * w
        if lead:
            self.values.append(_reduced(common * lead, -const, {f: -w for f, w in lin.items()}))
            return
        step = _pivot(const, lin)
        if step is not None:
            self.free_ids.remove(step[0])
            _substitute(self.values, *step)

    def pin(self, initial: dict) -> SeriesSolution:
        """The single stream with the given values, remaining freedom zeroed.

        The pins are eliminated in index order, each for its newest free
        parameter, but only among themselves: the free parameters that
        survive are zero, the eliminated ones follow by back substitution,
        and each stream value is then evaluated once.  The reduction itself
        is left unchanged.  Contradictory pins raise InconsistentSystemError.
        """
        pins = {int(k): as_rational(v) for k, v in initial.items()}
        steps = []
        for idx, wanted in sorted(pins.items()):
            if idx > self.count:
                raise InsufficientDataError(f"pinned index {idx} beyond truncation")
            den, vconst, vlin = self.values[idx]
            q = wanted.denominator
            lin = {f: w * q for f, w in vlin.items()}
            constraint = [(1, vconst * q - wanted.numerator * den, lin)]
            for step in steps:
                _substitute(constraint, *step)
            step = _pivot(*constraint[0][1:])
            if step is not None:
                steps.append(step)
        free: dict[int, Fraction] = {}
        for target, const, live, pivot in reversed(steps):
            known = sum(w * free.get(f, 0) for f, w in live.items())
            free[target] = -(const + known) / Fraction(pivot)
        common = math.lcm(*(x.denominator for x in free.values()))
        scaled = {f: x.numerator * (common // x.denominator) for f, x in free.items()}
        stream = []
        for den, vconst, vlin in self.values[: self.count + 1]:
            total = vconst * common + sum(w * scaled[f] for f, w in vlin.items() if f in scaled)
            stream.append(Fraction(total, den * common))
        for idx, wanted in pins.items():
            if stream[idx] != wanted:
                raise InconsistentSystemError(
                    f"initial value at index {idx} is inconsistent with the rows"
                )
        return SeriesSolution.from_values(
            stream,
            rho=self.rec.rho_offset,
            provenance={"pinned": {k: str(v) for k, v in sorted(pins.items())}},
        )

    def basis(self) -> list[SeriesSolution]:
        """The particular solution (if inhomogeneous), then one stream per free parameter."""
        values = self.values[: self.count + 1]
        rho = self.rec.rho_offset
        solutions = []
        if self.inhomogeneous:
            particular = [Fraction(vconst, den) for den, vconst, _ in values]
            solutions.append(
                SeriesSolution.from_values(particular, rho=rho, provenance={"particular": True})
            )
        for fid in self.free_ids:
            stream = [Fraction(vlin.get(fid, 0), den) for den, _, vlin in values]
            if all(v == 0 for v in stream):
                continue
            solutions.append(
                SeriesSolution.from_values(stream, rho=rho, provenance={"free": {fid: Fraction(1)}})
            )
        return solutions


def solve_series(
    rec: CoefficientRecurrence,
    count: int,
    initial: dict[int, Fraction] | None = None,
    rhs=None,
) -> list[SeriesSolution]:
    """Generate the truncated solution space of a recurrence, exactly.

    ``count`` is the largest stream index (a_0..a_count are produced) and
    must cover the window span.  Without ``initial`` the result is a basis of
    the solution space: for a homogeneous system one stream per surviving
    free parameter; with a right-hand side, the particular solution (free
    parameters zeroed) followed by the homogeneous basis.  With ``initial``
    the pinned values select a single stream (remaining freedom is zeroed);
    contradictory pins raise InconsistentSystemError.

    An empty list means only the identically-zero stream survives.
    """
    reduction = RowReduction(rec, count, rhs)
    if initial is not None:
        return [reduction.pin(initial)]
    return reduction.basis()


# --- growth estimation --------------------------------------------------------


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted decay profile of a coefficient stream.

    ``chi_hat`` is the reciprocal of the fitted n log n slope (the growth
    order of the limit function when below one); infinite when the stream
    does not super-exponentially decay.
    """

    chi_hat: float
    fit_window: tuple[int, int]
    model_params: tuple[float, float, float, float]
    residual: float
    converged: bool


def estimate_chi(coeffs, min_terms: int = 64) -> GrowthEstimate:
    """Fit -log|a_n| = mu*n*log n + beta*n + gamma*log n + delta, trailing half.

    Zero coefficients are skipped (arithmetic-progression supports are fine);
    at least ``min_terms`` nonzero terms are required.  A non-positive fitted
    slope is reported as chi_hat = inf with converged False.
    """
    indexed = []
    for n, c in enumerate(coeffs):
        if isinstance(c, Fraction):
            if c != 0:
                indexed.append((n, fraction_log_abs(c)))
        elif c:
            indexed.append((n, math.log(abs(c))))
    if len(indexed) < min_terms:
        raise InsufficientDataError(
            f"need at least {min_terms} nonzero coefficients, have {len(indexed)}"
        )
    tail = indexed[len(indexed) // 2 :]
    ns = np.array([float(n) for n, _ in tail])
    ys = np.array([-logmag for _, logmag in tail])
    logn = np.log(ns)
    design = np.column_stack([ns * logn, ns, logn, np.ones_like(ns)])
    params, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ params
    residual = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    mu = float(params[0])
    if mu <= 0:
        chi_hat = math.inf
        converged = False
    else:
        chi_hat = 1.0 / mu
        converged = math.isfinite(residual)
    return GrowthEstimate(
        chi_hat=chi_hat,
        fit_window=(tail[0][0], tail[-1][0]),
        model_params=tuple(float(x) for x in params),
        residual=residual,
        converged=converged,
    )
