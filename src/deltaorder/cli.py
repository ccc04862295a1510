"""Command-line front end: analyze, solve, construct, eval, verify, compose.

All commands read equation text (directly or from a file via ``@path``),
emit JSON on stdout by default (``--format human`` for aligned tables), and
are deterministic: identical input produces byte-identical output.  Exact
rationals are serialized as ``num/den`` strings; a diagnostic float that is
not finite prints as null, and a value that is not exits 6.  An error about
a number or q/p in a flag, or a --solution entry, quotes at most the first
40 characters of the text it rejects (``parsing.quoted``), except that a
number of at most 640 characters keeps Python's own message for it; an int
flag past ``sys.maxsize`` reads as inf.  Exit codes: 0 success,
2 parse/usage error (also an input over a declared limit: a coefficient
polynomial of degree above ``parsing.MAX_DEGREE`` = 500, a difference order
above ``parsing.MAX_ORDER`` = 100, a literal, product or power whose
coefficients could reach 2**``parsing.MAX_BITS`` = 2**100000, parentheses
nested deeper than ``parsing.MAX_NESTING`` = 100, --terms above
``MAX_TERMS`` = 3200, or a rational in --initial, --rho or a --solution file
whose decimal exponent exceeds 30103 in magnitude; and a negative-integer
offset, a negative or repeated pin index,
a pin index past --terms, a negative --index or --terms, --terms below the
window span, --initial, --rho or --terms beside --solution, --index
without it, a --radii entry that is not a number, an unreadable or
malformed --solution file (rationals in it are strings or integers), or
--rows below the first row),
3 degenerate equation, 4 empty solution space, 5 invalid prescribed order
(also a q/p whose denominator is above
``construction.MAX_ORDER_DENOMINATOR`` = 101, rejected before construction),
6 evaluation failure (also an ``eval --at`` value or an ``eval --radii``
maximum modulus past the double range, more than ``polynomials.MAX_RADII``
= 16 radii, a characteristic or indicial root whose magnitude is outside
the double range, and a rational-root search of the indicial polynomial
that would exceed ``recurrences.MAX_DIVISOR_SEARCH`` = 2**20 steps), 7 malformed
environment setting (a DELTAORDER_PRECISION that is not an integer or
exceeds ``polynomials.MAX_PRECISION`` = 1024 bits), 141 (128 + SIGPIPE)
stdout closed before the output was written, as by ``| head``, which ends
the command with nothing on stderr.

Importing this module loads neither numpy nor mpmath, nor ``dataclasses``;
each command loads what it computes with.  ``analyze`` and ``compose`` handle
no coefficient stream and load neither ``series`` nor ``construction``, and
so not ``dataclasses`` (with ``inspect``), which ``SeriesSolution`` needs;
``solve``, ``construct``, ``eval`` and ``verify`` import them at their first
use.  ``compose`` derives no recurrence and does not load ``recurrences``
either.  ``verify --solution`` and ``compose`` load neither numpy nor mpmath,
and ``eval --solution`` loads mpmath only.  ``analyze`` finds two-term and
quadratic roots in closed form, so it loads numpy only where a
characteristic polynomial, or the part of the indicial polynomial without
rational roots, has three or more terms and degree three or more; the
README cubic needs none.  ``construct`` loads numpy for the chi fit of its
round trip, and ``solve`` for the chi fit of a stream with
``series.MIN_CHI_TERMS`` = 64 nonzero coefficients.  ``eval`` and ``verify``
solving an equation themselves load it only to choose among two or more
basis streams by their chi fits: with --initial, or on a one-dimensional
basis such as the cubic's at --rho 3/2, there is one stream and no fit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .equations import DifferenceEquation, apply_operator, compose_operators, normalize_to_delta
from .errors import (
    ConfigurationError,
    DegenerateEquationError,
    EvaluationError,
    GammaPoleError,
    InconsistentSystemError,
    InsufficientDataError,
    InvalidOrderError,
    ParseError,
    RootRangeError,
)
from .newton import NewtonAnalysis, analyze, verdict
from .parsing import format_delta_form, format_general, parse_equation, quoted, read_int, read_rational
from .polynomials import MAX_RADII, MAX_SAMPLES, format_rational, working_precision

if TYPE_CHECKING:  # pragma: no cover
    from .recurrences import AdamsPolygon, CoefficientRecurrence
    from .series import GrowthEstimate, SeriesSolution

SCHEMA = "deltaorder/1"

EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_EMPTY = 4
EXIT_ORDER = 5
EXIT_EVAL = 6
EXIT_CONFIG = 7

#: Largest --terms that solve, eval and verify accept.  ``solve`` of the README
#: cubic with its pins took 2.4 s at 1600 terms and 19.5 s at 3200 on a shared
#: 2-vCPU host, most of it printing coefficients of up to 106 000 bits.
MAX_TERMS = 3200


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- serialization ------------------------------------------------------------


def _encode(value):
    """JSON form of the values payloads carry as they are: exact rationals and complex numbers."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _equation_json(eq: DifferenceEquation) -> dict:
    return {
        "text": format_delta_form(eq),
        "order": eq.order,
        "coefficients": [p.coeffs for p in eq.coeffs],
    }


def _newton_json(analysis: NewtonAnalysis) -> dict:
    return {
        "degrees": [None if d == float("-inf") else int(d) for d in analysis.degrees],
        "s_sequence": analysis.s_seq,
        "p": analysis.p,
        **verdict(analysis),
    }


def _polygon_json(polygon: AdamsPolygon) -> dict:
    return {
        "points": polygon.points,
        "segments": [
            {
                "slope": seg.slope,
                "span": seg.span,
                "start": seg.start,
                "end": seg.end,
                "char_roots": seg.char_roots,
                "chi": seg.chi,
            }
            for seg in polygon.segments
        ],
        "max_window_degree": polygon.normalization_degree,
        "max_degree_index": polygon.normalization_index,
        "note": polygon.note,
    }


def _finite(x: float) -> float | None:
    """``x``, or None where it is not finite and so has no JSON form."""
    return x if math.isfinite(x) else None


def _chi(sol: SeriesSolution) -> GrowthEstimate | None:
    """The decay fit of a stream, or None when it has too few nonzero terms to fit."""
    from .series import estimate_chi

    try:
        return estimate_chi(sol.coeffs)
    except InsufficientDataError:
        return None


def _solution_json(sol: SeriesSolution) -> dict:
    data = {
        "rho": sol.rho_offset,
        "support_modulus": sol.support_modulus,
        "provenance": sol.provenance or {},
        "coefficients": sol.coeffs,
        "chi": None,
    }
    est = _chi(sol)
    if est is not None:
        data["chi"] = {
            "chi_hat": _finite(est.chi_hat),
            "mu": est.model_params[0],
            "converged": est.converged,
            "residual": est.residual,
            "fit_window": est.fit_window,
        }
    return data


def _emit(payload: dict, fmt: str):
    text = json.dumps(payload, indent=2, default=_encode, allow_nan=False)
    if fmt == "json":
        print(text)
    else:
        _emit_human(json.loads(text))


def _emit_human(payload: dict, indent: int = 0):
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_human(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_human(item, indent + 1)
                print()
        elif isinstance(value, list) and value and isinstance(value[0], list):
            rendered = " ".join("(" + ", ".join(str(x) for x in item) + ")" for item in value)
            print(f"{pad}{key}: {rendered}")
        else:
            print(f"{pad}{key}: {value}")


# --- shared input handling ----------------------------------------------------


def _equation(raw: str) -> DifferenceEquation:
    """Equation text, or @file, in canonical Delta-form."""
    try:
        text = Path(raw[1:]).read_text(encoding="utf-8") if raw.startswith("@") else raw
        general = parse_equation(text)
    except OSError as exc:
        raise _CommandError(EXIT_PARSE, f"cannot read equation file {quoted(raw[1:])}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _CommandError(EXIT_PARSE, f"cannot read equation file: {exc}")
    except ParseError as exc:
        raise _CommandError(EXIT_PARSE, f"parse error: {exc}")
    try:
        return normalize_to_delta(general)
    except DegenerateEquationError as exc:
        raise _CommandError(EXIT_DEGENERATE, f"degenerate equation: {exc}")


def _rational(value: str | int, what: str, zero: str = "zero denominator in") -> Fraction:
    """``read_rational(value)``, exiting 2 on an error; a zero denominator is reported as ``zero`` and the quoted value."""
    try:
        return read_rational(value)
    except ZeroDivisionError:
        raise _CommandError(EXIT_PARSE, f"{what}: {zero} {quoted(value)}")
    except ValueError as exc:
        raise _CommandError(EXIT_PARSE, f"{what}: {exc}")


def _parse_initial(text: str | None) -> dict[int, Fraction] | None:
    if not text:
        return None
    pins: dict[int, Fraction] = {}
    for piece in text.split(","):
        idx, sep, value = piece.partition("=")
        if not sep:
            raise _CommandError(EXIT_PARSE, f"initial pin {quoted(piece)} must be idx=value")
        try:
            key = read_int(idx, MAX_TERMS)
        except OverflowError as exc:  # past every truncation
            raise _CommandError(EXIT_PARSE, f"pinned index {exc}")
        except ValueError as exc:
            raise _CommandError(EXIT_PARSE, f"invalid initial pin {quoted(piece)}: {exc}")
        if key in pins:
            raise _CommandError(EXIT_PARSE, f"initial pin index {key} is given twice")
        pins[key] = _rational(value, f"invalid initial value at index {key}")
    return pins


def _parse_radii(text: str) -> list[float]:
    radii = []
    for r in text.split(","):
        try:
            radii.append(float(r))
        except ValueError:
            message = f"invalid radii {quoted(text)}: could not convert string to float: {quoted(r)}"
            raise _CommandError(EXIT_PARSE, message)
    return radii


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise _CommandError(EXIT_PARSE, f"invalid complex point {quoted(text)}: {exc}")


def _reader(kind: str):
    """The argparse ``type=`` reader of an int flag (by ``read_int``) or a float flag, quoting rejected text.
    No int flag takes a value past ``sys.maxsize``, which bounds every list: a longer number in
    over 40 characters is left unread as inf or -inf, for the flag's range check to reject."""

    def read(text: str):
        try:
            return read_int(text, sys.maxsize) if kind == "int" else float(text)
        except OverflowError:
            return -float("inf") if text.lstrip().startswith("-") else float("inf")
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {quoted(text)}") from None

    return read


# --- subcommands ----------------------------------------------------------------


def _cmd_analyze(args) -> dict:
    from .recurrences import adams_polygon, derive_recurrence, indicial_exponents, sub_one_branches

    eq = _equation(args.equation)
    analysis = analyze(eq)
    rec = derive_recurrence(eq)
    polygon = adams_polygon(rec)
    return {
        "schema": SCHEMA,
        "command": "analyze",
        "equation": _equation_json(eq),
        "newton": _newton_json(analysis),
        "window": {i: q.coeffs for i, q in sorted(rec.window.items())},
        "polygon": _polygon_json(polygon),
        "branches_below_one": [
            {"order": chi, "span": span} for chi, span in sub_one_branches(polygon)
        ],
        "indicial_exponents": indicial_exponents(eq),
        "verdict": verdict(analysis)["message"],
    }


def _recurrence(eq: DifferenceEquation, rho: Fraction) -> CoefficientRecurrence:
    from .recurrences import shifted_recurrence

    try:
        return shifted_recurrence(eq, rho)
    except ValueError as exc:
        raise _CommandError(EXIT_PARSE, str(exc))


def _solve(args, eq: DifferenceEquation, terms: int) -> tuple[CoefficientRecurrence, list[SeriesSolution]]:
    """The recurrence at --rho and its streams up to ``terms``, one stream when --initial pins it."""
    from .series import solve_series

    if terms < 0:
        raise _CommandError(EXIT_PARSE, f"--terms must not be negative, got {terms}")
    if terms > MAX_TERMS:
        raise _CommandError(EXIT_PARSE, f"--terms {terms} exceeds the limit {MAX_TERMS}")
    rho = _rational(args.rho, "invalid offset") if args.rho else Fraction(0)
    rec = _recurrence(eq, rho)
    initial = _parse_initial(getattr(args, "initial", None))
    _check_rows(args, rec)
    try:
        solutions = solve_series(rec, terms, initial=initial)
    except InconsistentSystemError as exc:
        raise _CommandError(EXIT_EMPTY, str(exc))
    except ValueError as exc:  # InsufficientDataError too: a truncation below the span, a pin past it
        raise _CommandError(EXIT_PARSE, str(exc))
    if not solutions:
        raise _CommandError(EXIT_EMPTY, "only the zero stream solves the rows")
    return rec, solutions


def _check_rows(args, rec: CoefficientRecurrence):
    """Reject a verify --rows below the first row of ``rec``, before any stream is solved."""
    rows = getattr(args, "rows", None)
    if rows is not None and rows < rec.first_row:
        raise _CommandError(EXIT_PARSE, f"--rows must be at least the first row {rec.first_row}")


def _cmd_solve(args) -> dict:
    if args.terms < 16:
        raise _CommandError(EXIT_PARSE, "--terms must be at least 16")
    eq = _equation(args.equation)
    rec, solutions = _solve(args, eq, args.terms)
    return {
        "schema": SCHEMA,
        "command": "solve",
        "equation": _equation_json(eq),
        "rho": rec.rho_offset,
        "terms": args.terms,
        "solutions": [_solution_json(s) for s in solutions],
    }


def _cmd_construct(args) -> dict:
    from .construction import MAX_ORDER_DENOMINATOR, construct_equation, roundtrip_check

    text = args.order.strip()
    num, sep, den = text.partition("/")
    if not sep:
        raise _CommandError(EXIT_ORDER, f"order {quoted(text)} must look like q/p")
    try:
        # an order has 0 < q < p <= MAX_ORDER_DENOMINATOR: a long q or p of more digits is not read
        q, p = (read_int(part, MAX_ORDER_DENOMINATOR) for part in (num, den))
    except OverflowError as exc:
        raise _CommandError(EXIT_ORDER, f"order {quoted(text)}: {exc}")
    except ValueError:
        raise _CommandError(EXIT_ORDER, f"order {quoted(text)} must be a rational q/p")
    try:
        result = construct_equation(q, p)
    except InvalidOrderError as exc:
        raise _CommandError(EXIT_ORDER, str(exc))
    report = roundtrip_check(result)
    return {
        "schema": SCHEMA,
        "command": "construct",
        "order": result.order_value,
        "weights": [format_rational(w) for w in result.weights],
        "template": format_general(result.template),
        "canonical": _equation_json(result.canonical),
        "newton": _newton_json(report.analysis),
        "polygon": _polygon_json(report.polygon),
        "predicted_series": _solution_json(result.predicted_series),
        "roundtrip": {
            "ok": report.ok,
            "stages": [
                {"stage": name, "ok": ok, "detail": detail}
                for name, ok, detail in report.stages
            ],
        },
    }


def _read_solution(path: str, index: int) -> SeriesSolution:
    from .series import SeriesSolution

    if index < 0:
        raise _CommandError(EXIT_PARSE, f"--index must not be negative, got {index}")
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=read_int)
    except OSError as exc:
        raise _CommandError(EXIT_PARSE, f"cannot read solution file {quoted(path)}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise _CommandError(EXIT_PARSE, f"cannot read solution file: {exc}")
    try:
        entry = payload["solutions"][index]
        coeffs, rho = entry["coefficients"], entry["rho"]
        # type(), not isinstance: a JSON boolean is no integer, and a float is no exact rational
        if type(coeffs) is not list or any(type(c) not in (str, int) for c in [*coeffs, rho]):
            raise TypeError("coefficients must list rational strings or integers, and rho be one")
    except (LookupError, TypeError) as exc:
        raise _CommandError(EXIT_PARSE, f"malformed solution file: {exc}")
    malformed = "malformed solution file"
    return SeriesSolution.from_values(
        [_rational(c, malformed, f"coefficient {k} has a zero denominator:") for k, c in enumerate(coeffs)],
        rho=_rational(rho, malformed, "rho has a zero denominator:"),
        provenance=entry.get("provenance"),
    )


def _load_solution(args, eq: DifferenceEquation | None, terms: int):
    """The stream eval and verify work on, and its recurrence when there is an equation.

    A --solution file is read as it is; --initial, --rho or --terms beside it
    is rejected.  Otherwise --index is, and the equation is solved up to
    --terms, else ``terms``: pins select one stream; without them the basis
    stream with the smallest finite fitted chi is taken, or the first stream
    when no stream has one, and a basis of one stream is taken with no fit.
    A verify --rows below the recurrence's first row is rejected before the
    equation is solved.
    """
    if args.solution:
        for flag in ("initial", "rho", "terms"):
            if getattr(args, flag, None) is not None:
                raise _CommandError(EXIT_PARSE, f"--{flag} cannot be combined with --solution")
        sol = _read_solution(args.solution, args.index or 0)
        if eq is None:
            return None, sol
        rec = _recurrence(eq, sol.rho_offset)
        _check_rows(args, rec)
        return rec, sol
    if args.index is not None:
        raise _CommandError(EXIT_PARSE, "--index needs --solution")
    if eq is None:
        raise _CommandError(EXIT_PARSE, "give an equation or --solution FILE")
    rec, solutions = _solve(args, eq, terms if args.terms is None else args.terms)
    if len(solutions) == 1:
        return rec, solutions[0]
    fits = [(est.chi_hat, k) for k, s in enumerate(solutions) if (est := _chi(s)) is not None]
    finite = [fit for fit in fits if fit[0] != float("inf")]
    return rec, solutions[min(finite)[1] if finite else 0]


def _cmd_eval(args) -> dict:
    from .evaluation import empirical_order, eval_series, max_modulus

    eq = _equation(args.equation) if args.equation else None
    # the precision and the flags before solving, so rejecting them costs nothing
    prec = working_precision()
    if args.at is None and not args.radii:
        raise _CommandError(EXIT_PARSE, "nothing to do: give --at and/or --radii")
    z = None if args.at is None else _parse_complex(args.at)
    radii = _parse_radii(args.radii) if args.radii else None
    _, sol = _load_solution(args, eq, terms=400)
    out = {
        "schema": SCHEMA,
        "command": "eval",
        "rho": sol.rho_offset,
        "precision_bits": prec,
    }
    try:
        if z is not None:
            result = eval_series(sol, z, tol=args.tol)
            out["point"] = {
                "z": z,
                "value": result.value,
                "terms_used": result.terms_used,
                "tail_bound": _finite(result.tail_bound),
                "log_scale": _finite(result.log_scale),
            }
        if radii:
            if len(radii) == 1:
                value = max_modulus(sol, radii[0], samples=args.samples, tol=args.tol)
                out["max_modulus"] = {"radius": radii[0], "value": value}
            else:
                fit = empirical_order(sol, radii, samples=args.samples, tol=args.tol)
                out["growth"] = {
                    "radii": fit.radii,
                    "log_max_modulus": fit.log_max_modulus,
                    "rho_hat": fit.rho_hat,
                    "scale_hat": fit.scale_hat,
                    "fit_residual": fit.fit_residual,
                }
    except (EvaluationError, GammaPoleError, ValueError) as exc:
        raise _CommandError(EXIT_EVAL, f"evaluation failed: {exc}")
    return out


def _cmd_verify(args) -> dict:
    from .series import verify_recurrence

    eq = _equation(args.equation)
    rec, sol = _load_solution(args, eq, terms=200)
    max_rows = len(sol.coeffs) - 1 - rec.order
    rows = max_rows if args.rows is None else args.rows
    if not rec.first_row <= rows <= max_rows:
        raise _CommandError(EXIT_EVAL, f"solution too short: can check at most {max_rows} rows")
    report = verify_recurrence(rec, sol, rows)
    # below row 0 (only at a nonzero offset) no image coefficient is in range
    direct = apply_operator(eq, sol, min(rows, 50))
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "equation": _equation_json(eq),
        "rho": sol.rho_offset,
        "rows_checked": report.rows_checked,
        "exact": report.exact,
        "max_residual": report.max_residual,
        "first_failing_row": report.first_failing_row,
        "direct_image_zero": all(v == 0 for v in direct) if direct else None,
    }
    if not report.exact:
        message = f"residual {format_rational(report.max_residual)} at row {report.first_failing_row}"
        raise _CommandError(EXIT_EVAL, message)
    return payload


def _cmd_compose(args) -> dict:
    outer = _equation(args.outer)
    inner = _equation(args.inner)
    composed = compose_operators(outer, inner)
    analysis = analyze(composed)
    return {
        "schema": SCHEMA,
        "command": "compose",
        "outer": _equation_json(outer),
        "inner": _equation_json(inner),
        "composed": _equation_json(composed),
        "newton": _newton_json(analysis),
    }


# --- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, quoting the arguments that its messages echo (an
    invalid choice, a subcommand or an unrecognized argument) by ``quoted``."""

    def _check_value(self, action, value):
        # argparse decides; only its message, which holds the whole value, is replaced
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {quoted(value)} (choose from {choices})") from None

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(map(quoted, extras)))
        return args


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deltaorder",
        description=(
            "Analyze linear difference equations with polynomial coefficients: "
            "admissible growth orders below 1, coefficient recurrences, exact "
            "series solutions, and numeric growth checks."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stream_source(p, terms: int):
        p.add_argument("--solution", default=None, help="solution file from 'solve'")
        p.add_argument("--index", type=_reader("int"), default=None, help="solution index in the file (default 0)")
        p.add_argument("--rho", default=None, help="offset when solving an equation")
        p.add_argument("--terms", type=_reader("int"), default=None, help=f"coefficients when solving (default {terms})")

    p = sub.add_parser("analyze", help="degrees, order list, polygon, indicial data")
    p.add_argument("equation", help="equation text, or @file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="exact series solutions of the recurrence")
    p.add_argument("equation", help="equation text, or @file")
    p.add_argument("--terms", type=_reader("int"), default=200, help="largest index generated")
    p.add_argument("--rho", default=None, help="falling-power offset, e.g. 3/2")
    p.add_argument("--initial", default=None, help="pins like 0=1,1=0,3=1/24")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("construct", help="equation with a prescribed order in (0,1)")
    p.add_argument("--order", required=True, help="coprime rational q/p, e.g. 3/4")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("eval", help="numeric evaluation / empirical growth order")
    p.add_argument("equation", nargs="?", default=None, help="equation text, or @file")
    add_stream_source(p, terms=400)
    p.add_argument("--initial", default=None, help="pins like 0=1,1=0,3=1/24")
    p.add_argument("--at", default=None, help="complex point, e.g. 2.5 or 1+2i")
    p.add_argument("--radii", default=None, help=f"comma list of at most {MAX_RADII}, e.g. 50,100,200,400")
    p.add_argument("--samples", type=_reader("int"), default=64, help=f"points per circle, 8 to {MAX_SAMPLES}")
    p.add_argument("--tol", type=_reader("float"), default=1e-12, help="term tolerance")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="substitute a solution stream into the rows")
    p.add_argument("equation", help="equation text, or @file")
    add_stream_source(p, terms=200)
    p.add_argument("--rows", type=_reader("int"), default=None, help="rows to check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compose", help="operator product of two equations")
    p.add_argument("outer", help="outer equation text, or @file")
    p.add_argument("inner", help="inner equation text, or @file")
    p.set_defaults(func=_cmd_compose)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "human"), default="json", help="output style")
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Fraction reads a decimal point or exponent form, and other modules'
        # messages print exact values, past CPython's 4300-digit str/int limit
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except _CommandError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except GammaPoleError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except RootRangeError as exc:
        print(f"numeric range: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the interpreter's last flush writes to devnull,
        # not to a traceback, and the exit code is the shell's for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
