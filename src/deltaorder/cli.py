"""Command-line front end: analyze, solve, construct, eval, verify, compose.

All commands read equation text (directly or from a file via ``@path``),
emit JSON on stdout by default (``--format human`` for aligned tables), and
are deterministic: identical input produces byte-identical output.  Exact
rationals are serialized as ``num/den`` strings.  Exit codes: 0 success,
2 parse/usage error, 3 degenerate equation, 4 empty solution space,
5 invalid prescribed order, 6 evaluation failure, 7 malformed environment
setting (DELTAORDER_PRECISION).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .equations import DifferenceEquation, GeneralForm, apply_operator, compose_operators, normalize_to_delta
from .errors import (
    ConfigurationError,
    DegenerateEquationError,
    EvaluationError,
    GammaPoleError,
    InconsistentSystemError,
    InsufficientDataError,
    InvalidOrderError,
    ParseError,
)
from .evaluation import MAX_SAMPLES, empirical_order, eval_series, max_modulus
from .newton import NewtonAnalysis, analyze, verdict
from .parsing import format_delta_form, format_general, parse_equation
from .polynomials import Poly, working_precision
from .recurrences import AdamsPolygon, adams_polygon, derive_recurrence, indicial_exponents, shifted_recurrence, sub_one_branches
from .series import SeriesSolution, estimate_chi, solve_series, verify_recurrence
from .construction import construct_equation, roundtrip_check

SCHEMA = "deltaorder/1"

EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_EMPTY = 4
EXIT_ORDER = 5
EXIT_EVAL = 6
EXIT_CONFIG = 7


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- serialization helpers ----------------------------------------------------


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _poly_json(p: Poly) -> list[str]:
    return [_rat(c) for c in p.coeffs]


def _complex_json(value: complex) -> list[float]:
    return [value.real, value.imag]


def _root_json(root):
    if isinstance(root, Fraction):
        return _rat(root)
    return _complex_json(complex(root))


def _equation_json(eq: DifferenceEquation) -> dict:
    return {
        "text": format_delta_form(eq),
        "order": eq.order,
        "coefficients": [_poly_json(p) for p in eq.coeffs],
    }


# the verdict fields in CLI order
_VERDICT_KEYS = ("orders", "total_bound", "exists_below_one", "zero_order_possible", "message")


def _newton_json(analysis: NewtonAnalysis) -> dict:
    report = _jsonable(verdict(analysis))
    return {
        "degrees": [None if d == float("-inf") else int(d) for d in analysis.degrees],
        "s_sequence": list(analysis.s_seq),
        "p": analysis.p,
        **{key: report[key] for key in _VERDICT_KEYS},
    }


def _polygon_json(polygon: AdamsPolygon) -> dict:
    return {
        "points": [list(pt) for pt in polygon.points],
        "segments": [
            {
                "slope": _rat(seg.slope),
                "span": seg.span,
                "start": list(seg.start),
                "end": list(seg.end),
                "char_roots": [_root_json(r) for r in seg.char_roots],
                "chi": _rat(seg.chi) if seg.chi is not None else None,
            }
            for seg in polygon.segments
        ],
        "max_window_degree": polygon.normalization_degree,
        "max_degree_index": polygon.normalization_index,
        "note": polygon.note,
    }


def _jsonable(value):
    if isinstance(value, Fraction):
        return _rat(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _solution_json(sol: SeriesSolution, with_chi: bool) -> dict:
    data = {
        "rho": _rat(sol.rho_offset),
        "support_modulus": sol.support_modulus,
        "provenance": _jsonable(sol.provenance or {}),
        "coefficients": [_rat(c) for c in sol.coeffs],
    }
    if with_chi:
        nonzero = sum(1 for c in sol.coeffs if c != 0)
        if nonzero >= 64:
            est = estimate_chi(sol.coeffs)
            data["chi"] = {
                "chi_hat": est.chi_hat if est.chi_hat != float("inf") else None,
                "mu": est.model_params[0],
                "converged": est.converged,
                "residual": est.residual,
                "fit_window": list(est.fit_window),
            }
        else:
            data["chi"] = None
    return data


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _emit_human(payload)


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
            rendered = " ".join(
                "(" + ", ".join(str(x) for x in item) + ")" for item in value
            )
            print(f"{pad}{key}: {rendered}")
        else:
            print(f"{pad}{key}: {value}")


# --- shared input handling ----------------------------------------------------


def _read_equation_text(raw: str) -> str:
    if raw.startswith("@"):
        return Path(raw[1:]).read_text(encoding="utf-8")
    return raw


def _parse_general(raw: str) -> GeneralForm:
    try:
        return parse_equation(_read_equation_text(raw))
    except OSError as exc:
        raise _CommandError(EXIT_PARSE, f"cannot read equation file: {exc}")
    except ParseError as exc:
        raise _CommandError(EXIT_PARSE, f"parse error: {exc}")


def _to_delta(general: GeneralForm) -> DifferenceEquation:
    try:
        return normalize_to_delta(general)
    except DegenerateEquationError as exc:
        raise _CommandError(EXIT_DEGENERATE, f"degenerate equation: {exc}")


def _parse_rational(text: str, what: str, code: int = EXIT_PARSE) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CommandError(code, f"invalid {what}: {exc}")


def _parse_initial(text: str | None) -> dict[int, Fraction] | None:
    if not text:
        return None
    pins: dict[int, Fraction] = {}
    for piece in text.split(","):
        idx, sep, value = piece.partition("=")
        if not sep:
            raise _CommandError(EXIT_PARSE, f"initial pin {piece!r} must be idx=value")
        try:
            pins[int(idx)] = _parse_rational(value, "initial value")
        except ValueError as exc:
            raise _CommandError(EXIT_PARSE, f"invalid initial pin {piece!r}: {exc}")
    return pins


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise _CommandError(EXIT_PARSE, f"invalid complex point {text!r}: {exc}")


# --- subcommands ----------------------------------------------------------------


def _cmd_analyze(args) -> dict:
    eq = _to_delta(_parse_general(args.equation))
    analysis = analyze(eq)
    rec = derive_recurrence(eq)
    polygon = adams_polygon(rec)
    branches = sub_one_branches(polygon)
    return {
        "schema": SCHEMA,
        "command": "analyze",
        "equation": _equation_json(eq),
        "newton": _newton_json(analysis),
        "window": {str(i): _poly_json(q) for i, q in sorted(rec.window.items())},
        "polygon": _polygon_json(polygon),
        "branches_below_one": [
            {"order": _rat(chi), "span": span} for chi, span in branches
        ],
        "indicial_exponents": [_root_json(r) for r in indicial_exponents(eq)],
        "verdict": verdict(analysis)["message"],
    }


def _cmd_solve(args) -> dict:
    if args.terms < 16:
        raise _CommandError(EXIT_PARSE, "--terms must be at least 16")
    eq = _to_delta(_parse_general(args.equation))
    rho = _parse_rational(args.rho, "offset") if args.rho else Fraction(0)
    try:
        rec = shifted_recurrence(eq, rho)
    except ValueError as exc:
        raise _CommandError(EXIT_PARSE, str(exc))
    initial = _parse_initial(args.initial)
    try:
        solutions = solve_series(rec, args.terms, initial=initial)
    except (InconsistentSystemError, InsufficientDataError) as exc:
        raise _CommandError(EXIT_EMPTY, str(exc))
    if not solutions:
        raise _CommandError(EXIT_EMPTY, "only the zero stream solves the rows")
    return {
        "schema": SCHEMA,
        "command": "solve",
        "equation": _equation_json(eq),
        "rho": _rat(rho),
        "terms": args.terms,
        "solutions": [_solution_json(s, with_chi=True) for s in solutions],
    }


def _cmd_construct(args) -> dict:
    text = args.order.strip()
    num, sep, den = text.partition("/")
    if not sep:
        raise _CommandError(EXIT_ORDER, f"order {text!r} must look like q/p")
    try:
        q, p = int(num), int(den)
    except ValueError:
        raise _CommandError(EXIT_ORDER, f"order {text!r} must be a rational q/p")
    try:
        result = construct_equation(q, p)
    except InvalidOrderError as exc:
        raise _CommandError(EXIT_ORDER, str(exc))
    report = roundtrip_check(result)
    return {
        "schema": SCHEMA,
        "command": "construct",
        "order": _rat(result.order_value),
        "weights": [str(w) for w in result.weights],
        "template": format_general(result.template),
        "canonical": _equation_json(result.canonical),
        "newton": _newton_json(report.analysis),
        "polygon": _polygon_json(report.polygon),
        "predicted_series": _solution_json(result.predicted_series, with_chi=True),
        "roundtrip": {
            "ok": report.ok,
            "stages": [
                {"stage": name, "ok": ok, "detail": detail}
                for name, ok, detail in report.stages
            ],
        },
    }


def _load_solution(args) -> SeriesSolution:
    if args.solution:
        try:
            payload = json.loads(Path(args.solution).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _CommandError(EXIT_PARSE, f"cannot read solution file: {exc}")
        try:
            entry = payload["solutions"][args.index]
            return SeriesSolution.from_values(
                [Fraction(c) for c in entry["coefficients"]],
                rho=Fraction(entry["rho"]),
                provenance=entry.get("provenance"),
            )
        except (KeyError, IndexError, ValueError) as exc:
            raise _CommandError(EXIT_PARSE, f"malformed solution file: {exc}")
    if not args.equation:
        raise _CommandError(EXIT_PARSE, "give an equation or --solution FILE")
    eq = _to_delta(_parse_general(args.equation))
    rho = _parse_rational(args.rho, "offset") if args.rho else Fraction(0)
    rec = shifted_recurrence(eq, rho)
    initial = _parse_initial(getattr(args, "initial", None))
    try:
        if initial is not None:
            return solve_series(rec, args.terms, initial=initial)[0]
        solutions = solve_series(rec, args.terms)
    except (InconsistentSystemError, InsufficientDataError) as exc:
        raise _CommandError(EXIT_EMPTY, str(exc))
    if not solutions:
        raise _CommandError(EXIT_EMPTY, "only the zero stream solves the rows")
    best = None
    for sol in solutions:
        nonzero = sum(1 for c in sol.coeffs if c != 0)
        if nonzero < 64:
            continue
        est = estimate_chi(sol.coeffs)
        if est.chi_hat != float("inf") and (best is None or est.chi_hat < best[0]):
            best = (est.chi_hat, sol)
    if best is None:
        return solutions[0]
    return best[1]


def _cmd_eval(args) -> dict:
    sol = _load_solution(args)
    prec = working_precision()
    out = {
        "schema": SCHEMA,
        "command": "eval",
        "rho": _rat(sol.rho_offset),
        "precision_bits": prec,
    }
    did_anything = False
    try:
        if args.at is not None:
            z = _parse_complex(args.at)
            result = eval_series(sol, z, tol=args.tol, prec=prec)
            out["point"] = {
                "z": _complex_json(z),
                "value": _complex_json(result.value),
                "terms_used": result.terms_used,
                "tail_bound": result.tail_bound,
                "log_scale": result.log_scale,
            }
            did_anything = True
        if args.radii:
            radii = [float(r) for r in args.radii.split(",")]
            if len(radii) == 1:
                out["max_modulus"] = {
                    "radius": radii[0],
                    "value": max_modulus(
                        sol, radii[0], samples=args.samples, tol=args.tol, prec=prec
                    ),
                }
            else:
                fit = empirical_order(
                    sol, radii, samples=args.samples, tol=args.tol, prec=prec
                )
                out["growth"] = {
                    "radii": list(fit.radii),
                    "log_max_modulus": list(fit.log_max_modulus),
                    "rho_hat": fit.rho_hat,
                    "scale_hat": fit.scale_hat,
                    "fit_residual": fit.fit_residual,
                }
            did_anything = True
    except (EvaluationError, GammaPoleError, ValueError) as exc:
        raise _CommandError(EXIT_EVAL, f"evaluation failed: {exc}")
    if not did_anything:
        raise _CommandError(EXIT_PARSE, "nothing to do: give --at and/or --radii")
    return out


def _cmd_verify(args) -> dict:
    eq = _to_delta(_parse_general(args.equation))
    sol = _load_solution(args)
    rho = sol.rho_offset
    rec = shifted_recurrence(eq, rho)
    rows = args.rows
    max_rows = len(sol.coeffs) - 1 - rec.order
    if rows is None:
        rows = max_rows
    if rows > max_rows:
        raise _CommandError(
            EXIT_EVAL, f"solution too short: can check at most {max_rows} rows"
        )
    report = verify_recurrence(rec, sol, rows)
    direct = apply_operator(eq, sol, min(rows, 50))
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "equation": _equation_json(eq),
        "rho": _rat(rho),
        "rows_checked": report.rows_checked,
        "exact": report.exact,
        "max_residual": _rat(report.max_residual),
        "first_failing_row": report.first_failing_row,
        "direct_image_zero": all(v == 0 for v in direct),
    }
    if not report.exact:
        raise _CommandError(
            EXIT_EVAL,
            f"residual {report.max_residual} at row {report.first_failing_row}",
        )
    return payload


def _cmd_compose(args) -> dict:
    outer = _to_delta(_parse_general(args.outer))
    inner = _to_delta(_parse_general(args.inner))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaorder",
        description=(
            "Analyze linear difference equations with polynomial coefficients: "
            "admissible growth orders below 1, coefficient recurrences, exact "
            "series solutions, and numeric growth checks."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("json", "human"), default="json", help="output style"
        )

    p = sub.add_parser("analyze", help="degrees, order list, polygon, indicial data")
    p.add_argument("equation", help="equation text, or @file")
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="exact series solutions of the recurrence")
    p.add_argument("equation", help="equation text, or @file")
    p.add_argument("--terms", type=int, default=200, help="largest index generated")
    p.add_argument("--rho", default=None, help="falling-power offset, e.g. 3/2")
    p.add_argument("--initial", default=None, help="pins like 0=1,1=0,3=1/24")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("construct", help="equation with a prescribed order in (0,1)")
    p.add_argument("--order", required=True, help="coprime rational q/p, e.g. 3/4")
    add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("eval", help="numeric evaluation / empirical growth order")
    p.add_argument("equation", nargs="?", default=None, help="equation text, or @file")
    p.add_argument("--solution", default=None, help="solution file from 'solve'")
    p.add_argument("--index", type=int, default=0, help="solution index in the file")
    p.add_argument("--rho", default=None, help="offset when solving an equation")
    p.add_argument("--terms", type=int, default=400, help="coefficients when solving")
    p.add_argument("--initial", default=None, help="pins like 0=1,1=0,3=1/24")
    p.add_argument("--at", default=None, help="complex point, e.g. 2.5 or 1+2i")
    p.add_argument("--radii", default=None, help="comma list, e.g. 50,100,200,400")
    p.add_argument(
        "--samples", type=int, default=64, help=f"points per circle, 8 to {MAX_SAMPLES}"
    )
    p.add_argument("--tol", type=float, default=1e-12, help="term tolerance")
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="substitute a solution stream into the rows")
    p.add_argument("equation", help="equation text, or @file")
    p.add_argument("--solution", default=None, help="solution file from 'solve'")
    p.add_argument("--index", type=int, default=0, help="solution index in the file")
    p.add_argument("--rho", default=None, help="offset when solving an equation")
    p.add_argument("--terms", type=int, default=200, help="coefficients when solving")
    p.add_argument("--rows", type=int, default=None, help="rows to check")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compose", help="operator product of two equations")
    p.add_argument("outer", help="outer equation text, or @file")
    p.add_argument("inner", help="inner equation text, or @file")
    add_common(p)
    p.set_defaults(func=_cmd_compose)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact coefficients outgrow CPython's default 4300-digit str/int limit
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
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
