import contextlib
import io
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaorder.cli import MAX_TERMS, _rational, _read_solution, main
from deltaorder.construction import MAX_ORDER_DENOMINATOR
from deltaorder.parsing import MAX_BITS, MAX_DEGREE, MAX_NESTING, MAX_ORDER
from deltaorder.polynomials import MAX_PRECISION, MAX_RADII

from fixtures_equations import (
    CUBIC_THIRD,
    HALF_ORDER,
    L3_TEXT,
    L5_TEXT,
    L8_COEFFS,
    QUARTIC_34,
    deadline,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_cubic_json(capsys):
    code, out, err = run_cli(capsys, "analyze", CUBIC_THIRD)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "deltaorder/1"
    assert payload["newton"]["s_sequence"] == [3, 0]
    assert payload["newton"]["orders"] == [{"rho": "1/3", "max_count": 1}]
    assert payload["newton"]["exists_below_one"] is True
    assert payload["indicial_exponents"] == ["0", "1", "4/3", "3/2", "2"]
    assert payload["branches_below_one"] == [{"order": "1/3", "span": 1}]


def test_analyze_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", QUARTIC_34)
    _, second, _ = run_cli(capsys, "analyze", QUARTIC_34)
    assert first == second


def test_analyze_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "analyze", "(z D f(z) = 0")
    assert code == 2
    assert "parse error" in err


def test_superscript_digit_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "z² f(z) + f(z+1) = 0")
    assert (code, out) == (2, "")
    assert "unexpected character '²'" in err and "Traceback" not in err


def test_analyze_degenerate_exit_code(capsys):
    code, out, err = run_cli(capsys, "analyze", "f(z) = 0")
    assert code == 3
    assert "degenerate" in err


def test_analyze_composed_equation(capsys):
    code, out, _ = run_cli(capsys, "compose", L3_TEXT, L5_TEXT)
    assert code == 0
    payload = json.loads(out)
    assert payload["composed"]["order"] == 8
    assert payload["composed"]["coefficients"][8] == [
        str(c) for c in L8_COEFFS[8]
    ]
    orders = [entry["rho"] for entry in payload["newton"]["orders"]]
    assert orders == ["1/3", "1/5"]


def test_solve_reports_chi_and_support(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "solve",
        QUARTIC_34,
        "--terms",
        "300",
        "--initial",
        "0=1,1=0,2=0,3=1/24",
    )
    assert code == 0
    payload = json.loads(out)
    sol = payload["solutions"][0]
    assert sol["support_modulus"] == 3
    assert sol["coefficients"][3] == "1/24"
    assert abs(sol["chi"]["chi_hat"] - 0.75) < 0.01
    (tmp_path / "solution.json").write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--solution",
        str(tmp_path / "solution.json"),
        "--at",
        "0",
    )
    assert code == 0
    assert json.loads(out)["point"]["value"] == [1.0, 0.0]


def test_solve_usage_error_for_small_terms(capsys):
    code, _, err = run_cli(capsys, "solve", CUBIC_THIRD, "--terms", "4")
    assert code == 2
    assert "--terms" in err


def test_solve_empty_space_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "solve", CUBIC_THIRD, "--rho", "1/7", "--terms", "40"
    )
    assert code == 4


def test_solve_with_offset_three_halves(capsys):
    code, out, _ = run_cli(
        capsys, "solve", CUBIC_THIRD, "--rho", "3/2", "--terms", "60"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == "3/2"
    assert len(payload["solutions"]) == 1
    coeffs = [Fraction(c) for c in payload["solutions"][0]["coefficients"]]
    rho = Fraction(3, 2)
    for n in range(30):
        denom = (n + rho + 1) * (2 * n + 2 * rho - 1) * (3 * n + 3 * rho - 1)
        assert coeffs[n + 1] == coeffs[n] / denom


def test_solve_fits_chi_from_64_nonzero_coefficients(capsys):
    # every coefficient of the one stream at offset 3/2 is nonzero
    for terms, fitted in ((62, False), (63, True)):
        code, out, _ = run_cli(capsys, "solve", CUBIC_THIRD, "--rho", "3/2", "--terms", str(terms))
        assert code == 0
        assert (json.loads(out)["solutions"][0]["chi"] is not None) == fitted


def test_construct_round_trip(capsys):
    code, out, _ = run_cli(capsys, "construct", "--order", "3/4")
    assert code == 0
    payload = json.loads(out)
    assert payload["roundtrip"]["ok"] is True
    assert payload["order"] == "3/4"
    assert {"rho": "3/4", "max_count": 3} in payload["newton"]["orders"]


def test_construct_invalid_orders(capsys):
    for bad in ("1/1", "2/6", "5/4", "x/y"):
        code, _, err = run_cli(capsys, "construct", "--order", bad)
        assert code == 5, bad


def test_construct_past_the_old_row_count_passes_its_round_trip(capsys):
    # the window span 202 of 100/101 is past ROUNDTRIP_ROWS = 200
    code, out, err = run_cli(capsys, "construct", "--order", "100/101")
    assert (code, err) == (0, "")
    assert json.loads(out)["roundtrip"]["ok"] is True


def test_construct_denominator_above_the_limit_exits_5(capsys):
    p = MAX_ORDER_DENOMINATOR + 1
    for order in (f"1/{p}", f"{p - 1}/{p}", "1/1000000000"):
        with deadline(5):
            code, out, err = run_cli(capsys, "construct", "--order", order)
        assert (code, out) == (5, ""), order
        assert f"exceeds the limit {MAX_ORDER_DENOMINATOR}" in err and "Traceback" not in err


def test_eval_pole_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "eval",
        CUBIC_THIRD,
        "--rho",
        "3/2",
        "--terms",
        "80",
        "--at",
        "-1",
    )
    assert code == 6
    assert "evaluation failed" in err


def test_eval_radii_growth(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        CUBIC_THIRD,
        "--terms",
        "300",
        "--initial",
        "0=1,1=1,2=1/4",
        "--radii",
        "50,100,200,400",
        "--samples",
        "32",
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.2 < payload["growth"]["rho_hat"] < 0.5


def test_verify_solution_file_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "solve", CUBIC_THIRD, "--terms", "120", "--initial", "0=1,1=1,2=1/4"
    )
    assert code == 0
    solution_path = tmp_path / "stream.json"
    solution_path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", CUBIC_THIRD, "--solution", str(solution_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["max_residual"] == "0"
    assert payload["direct_image_zero"] is True


def test_verify_rejects_non_solution(capsys, tmp_path):
    fake = {
        "solutions": [
            {"rho": "0", "coefficients": ["1"] * 80, "provenance": {}}
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fake), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", CUBIC_THIRD, "--solution", str(path))
    assert code == 6


def test_human_format_smoke(capsys):
    code, out, _ = run_cli(capsys, "analyze", CUBIC_THIRD, "--format", "human")
    assert code == 0
    assert "s_sequence" in out
    assert "1/3" in out


def test_equation_from_file(capsys, tmp_path):
    path = tmp_path / "eq.txt"
    path.write_text(CUBIC_THIRD, encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", f"@{path}")
    assert code == 0
    assert json.loads(out)["newton"]["p"] == 2


def test_eval_malformed_precision_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DELTAORDER_PRECISION", "128 bits")
    code, out, err = run_cli(capsys, "eval", "D f(z) - f(z) = 0", "--at", "1")
    assert code == 7
    assert out == ""
    assert "DELTAORDER_PRECISION" in err


def test_eval_rejects_bad_numeric_arguments_with_exit_six(capsys):
    base = ("eval", "D f(z) - f(z) = 0", "--terms", "40")
    cases = (
        (("--at", "nan"), "z must be finite"),
        (("--at", "1", "--tol", "0"), "tol must be"),
        (("--radii", "10,20,inf,40"), "radii entries must be finite"),
        (("--radii", "110", "--samples", "5000"), "samples must be at most 4096"),
    )
    for extra, message in cases:
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 6
        assert out == ""
        assert message in err


def test_construct_with_coefficients_past_the_int_string_limit(capsys):
    # the predicted series carries 1/(8t)!, whose denominators pass 4300 digits
    code, out, _ = run_cli(capsys, "construct", "--order", "1/8")
    assert code == 0
    assert json.loads(out)["roundtrip"]["ok"] is True


def test_verify_reads_coefficients_past_the_int_string_limit(capsys, tmp_path):
    # a_n = 1/n!: 1700! has 4755 digits
    equation = "D f(z) - f(z) = 0"
    code, out, _ = run_cli(capsys, "solve", equation, "--terms", "1700", "--initial", "0=1")
    assert code == 0
    coefficients = json.loads(out)["solutions"][0]["coefficients"]
    assert max(len(c) for c in coefficients) > 4300
    path = tmp_path / "stream.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", equation, "--solution", str(path))
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_eval_at_a_zero_of_the_offset_prefactor(capsys):
    # z + 1 - rho = 0 is a pole of Gamma(z + 1 - rho): ff(z, 3/2) vanishes at z = 1/2
    code, out, _ = run_cli(
        capsys, "eval", CUBIC_THIRD, "--rho", "3/2", "--terms", "80", "--at", "0.5"
    )
    assert code == 0
    assert json.loads(out)["point"]["value"] == [0.0, 0.0]


def test_negative_integer_offset_exits_two_for_every_command(capsys, tmp_path):
    # shifted_recurrence rejects the offset, whether from --rho or from a solution file
    path = tmp_path / "negative-rho.json"
    path.write_text(json.dumps({"solutions": [{"rho": "-1", "coefficients": ["1"] * 60}]}))
    cases = (
        ("solve", CUBIC_THIRD, "--rho=-1", "--terms", "20"),
        ("eval", CUBIC_THIRD, "--rho=-1", "--at", "1"),
        ("verify", CUBIC_THIRD, "--rho=-2", "--terms", "50"),
        ("verify", CUBIC_THIRD, "--solution", str(path)),
    )
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "offset must not be a negative integer" in err


def test_negative_pin_index_exits_two(capsys):
    for command in (("solve", CUBIC_THIRD), ("eval", CUBIC_THIRD, "--at", "1")):
        code, out, err = run_cli(capsys, *command, "--terms", "20", "--initial=-1=1")
        assert code == 2, command
        assert out == ""
        assert "pinned index -1 is negative" in err


def test_pin_index_past_the_truncation_exits_two(capsys):
    # the pin used to reach the solver and exit 4 as an empty solution space
    for command in (("solve", CUBIC_THIRD), ("eval", CUBIC_THIRD, "--at", "1")):
        code, out, err = run_cli(capsys, *command, "--terms", "80", "--initial", "0=1,81=1")
        assert code == 2, command
        assert out == ""
        assert "pinned index 81 beyond truncation" in err
        code, _, _ = run_cli(capsys, *command, "--terms", "80", "--initial", "0=1,80=1")
        assert code == 0, command


def test_eval_precision_above_the_limit_exits_seven(capsys, monkeypatch):
    # 100 000 bits ran past a 60 s timeout on one radius; the limit is read before solving
    monkeypatch.setenv("DELTAORDER_PRECISION", str(MAX_PRECISION + 1))
    start = time.perf_counter()
    with deadline(5):
        code, out, err = run_cli(capsys, "eval", CUBIC_THIRD, "--terms", "400", "--radii", "10")
    assert time.perf_counter() - start < 1
    assert (code, out) == (7, "")
    assert f"exceeds the limit {MAX_PRECISION}" in err
    monkeypatch.setenv("DELTAORDER_PRECISION", str(MAX_PRECISION))
    code, out, _ = run_cli(capsys, "eval", "D f(z) - f(z) = 0", "--terms", "40", "--at", "1")
    assert code == 0
    assert json.loads(out)["precision_bits"] == MAX_PRECISION


def test_eval_more_radii_than_the_limit_exits_six(capsys):
    base = ("eval", CUBIC_THIRD, "--terms", "200", "--initial", README_PINS, "--samples", "8")
    radii = ",".join(str(10 * r) for r in range(1, MAX_RADII + 2))
    code, out, err = run_cli(capsys, *base, "--radii", radii)
    assert (code, out) == (6, "")
    assert f"at most {MAX_RADII} radii are allowed, got {MAX_RADII + 1}" in err
    code, out, _ = run_cli(capsys, *base, "--radii", radii.rpartition(",")[0])
    assert code == 0
    assert len(json.loads(out)["growth"]["radii"]) == MAX_RADII


def test_repeated_pin_index_exits_two(capsys):
    for command in (("solve", HALF_ORDER), ("eval", HALF_ORDER, "--at", "1")):
        code, out, err = run_cli(capsys, *command, "--terms", "20", "--initial", "0=1,0=2")
        assert code == 2, command
        assert out == ""
        assert "initial pin index 0 is given twice" in err


def test_verify_rows_below_the_first_row_exit_two(capsys):
    code, out, _ = run_cli(capsys, "verify", CUBIC_THIRD, "--terms", "50", "--rows", "0")
    assert code == 0
    assert json.loads(out)["rows_checked"] == 1
    for rows in ("-1", "-5"):
        code, out, err = run_cli(capsys, "verify", CUBIC_THIRD, "--terms", "50", "--rows", rows)
        assert code == 2, rows
        assert out == ""
        assert "--rows must be at least the first row 0" in err


def test_flags_are_rejected_before_solving(capsys, monkeypatch):
    # eval --at 1+x on the cubic at 3200 terms used to solve for 3.1 s first
    from deltaorder import series

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the flags were checked")

    monkeypatch.setattr(series, "solve_series", no_solve)
    pins = ("--terms", "3200", "--initial", "0=1,1=0,2=0")
    for argv, message in (
        (("eval", CUBIC_THIRD, *pins, "--at", "1+x"), "invalid complex point '1+x'"),
        (("eval", CUBIC_THIRD, *pins), "nothing to do: give --at and/or --radii"),
        (("eval", CUBIC_THIRD, *pins, "--radii", "10,x"), "invalid radii '10,x'"),
        (("verify", CUBIC_THIRD, *pins[:2], "--rows", "-1"), "--rows must be at least the first row 0"),
        (("verify", CUBIC_THIRD, "--rho", "3/2", "--rows", "-4"), "--rows must be at least the first row -3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv


def test_verify_below_row_zero_reports_no_direct_image(capsys):
    # rows -3..-1 reach no image coefficient; `all([])` used to print true
    argv = ("verify", CUBIC_THIRD, "--rho", "3/2", "--terms", "80")
    for rows, rows_checked, image in (("-3", 1, None), ("-1", 3, None), ("0", 4, True)):
        code, out, _ = run_cli(capsys, *argv, "--rows", rows)
        assert code == 0
        payload = json.loads(out)
        assert (payload["rows_checked"], payload["direct_image_zero"]) == (rows_checked, image), rows


def test_verify_rejects_a_stream_shorter_than_one_row(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"solutions": [{"rho": "0", "coefficients": ["1", "2"]}]}))
    code, out, err = run_cli(capsys, "verify", CUBIC_THIRD, "--solution", str(path))
    assert code == 6
    assert out == ""
    assert "solution too short" in err


def test_eval_of_an_equation_takes_the_basis_stream_with_the_smallest_chi(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve", CUBIC_THIRD, "--terms", "100")
    assert code == 0
    streams = json.loads(out)["solutions"]
    best = min(range(len(streams)), key=lambda k: streams[k]["chi"]["chi_hat"])
    assert best != 0
    path = tmp_path / "basis.json"
    path.write_text(out, encoding="utf-8")
    # at z = 3 the series ends after a_3, and each basis stream gives its own value
    code, direct, _ = run_cli(capsys, "eval", CUBIC_THIRD, "--terms", "100", "--at", "3")
    assert code == 0
    code, chosen, _ = run_cli(
        capsys, "eval", "--solution", str(path), f"--index={best}", "--at", "3"
    )
    assert code == 0
    assert direct == chosen


def test_negative_solution_index_exits_two(capsys, half_order_file):
    # Python's negative indexing would otherwise take the last stream of the file
    source = ("--solution", str(half_order_file))
    for command in (("eval", "--at", "1"), ("verify", HALF_ORDER)):
        code, out, err = run_cli(capsys, *command, *source, "--index=-1")
        assert code == 2, command
        assert out == ""
        assert "--index must not be negative" in err
    code, _, _ = run_cli(capsys, "eval", "--at", "1", *source, "--index=1")
    assert code == 0


def test_negative_terms_exit_two(capsys):
    # a negative truncation used to reach the solver and exit 4 as an empty solution space
    for command in (("eval", CUBIC_THIRD, "--at", "1"), ("verify", CUBIC_THIRD)):
        for terms in ("-1", "-5"):
            code, out, err = run_cli(capsys, *command, f"--terms={terms}")
            assert code == 2, command
            assert out == ""
            assert f"--terms must not be negative, got {terms}" in err


def test_terms_below_the_window_span_exit_two(capsys):
    # the truncation used to reach the solver and exit 4 as an empty solution space
    text = "z^40 D f(z) + f(z) = 0"
    for command in (("solve", text), ("eval", text, "--at", "1"), ("verify", text)):
        code, out, err = run_cli(capsys, *command, "--terms", "20")
        assert code == 2, command
        assert out == ""
        assert "truncation 20 is below the window span 41" in err
    code, _, _ = run_cli(capsys, "solve", text, "--terms", "41")
    assert code == 0


def test_eval_malformed_radii_exit_two(capsys):
    # the list used to be read inside the evaluation and exit 6
    code, out, err = run_cli(capsys, "eval", "D f(z) - f(z) = 0", "--terms", "40", "--radii", "10,20,x")
    assert code == 2
    assert out == ""
    assert "invalid radii '10,20,x'" in err


_STREAM = {"rho": "0", "coefficients": ["1", "1/2"]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"solutions": [{**_STREAM, "coefficients": ["1", "1/0"]}]}, "malformed solution file"),
        ({"solutions": [{**_STREAM, "rho": "1/0"}]}, "malformed solution file"),
        ({"solutions": [{**_STREAM, "coefficients": 5}]}, "malformed solution file"),
        ([_STREAM], "malformed solution file"),
        ({"solutions": [{**_STREAM, "coefficients": "12"}]}, "malformed solution file"),
        ({"solutions": [{**_STREAM, "coefficients": ["1", 0.1]}]}, "malformed solution file"),
        ({"solutions": [{**_STREAM, "coefficients": ["1", True]}]}, "malformed solution file"),
        ({"solutions": [{**_STREAM, "rho": 0.5}]}, "malformed solution file"),
        ({"solutions": [{**_STREAM, "rho": False}]}, "malformed solution file"),
        ("[" * 100_000 + "]" * 100_000, "cannot read solution file"),
        (b"\xff\xfe", "cannot read solution file"),
    ],
    ids=[
        "zero-denominator-coefficient",
        "zero-denominator-rho",
        "scalar-coefficients",
        "top-level-list",
        "string-coefficients",
        "float-coefficient",
        "boolean-coefficient",
        "float-rho",
        "boolean-rho",
        "nested-too-deeply",
        "not-utf-8",
    ],
)
def test_malformed_solution_file_exits_two(capsys, tmp_path, payload, message):
    # each used to end in a ZeroDivisionError, TypeError, RecursionError or
    # UnicodeDecodeError traceback, or to be read as another stream: the
    # string "12" as the stream [1, 2], the float 0.1 as a binary rational
    # and true as 1
    path = tmp_path / "bad.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--solution", str(path), "--at", "1")
    assert code == 2
    assert out == ""
    assert message in err


def test_equation_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    # it used to end in a UnicodeDecodeError traceback with exit code 1
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff" + HALF_ORDER.encode())
    code, out, err = run_cli(capsys, "analyze", f"@{path}")
    assert code == 2
    assert out == ""
    assert "cannot read equation file" in err


def test_eval_parses_its_equation_beside_a_solution_file(capsys, half_order_file):
    source = ("--solution", str(half_order_file))
    code, out, err = run_cli(capsys, "eval", "garbage(", *source, "--at", "1")
    assert code == 2
    assert out == ""
    assert "parse error" in err
    code, _, _ = run_cli(capsys, "eval", HALF_ORDER, *source, "--at", "1")
    assert code == 0


def test_eval_rejects_pins_beside_a_solution_file(capsys, half_order_file):
    code, out, err = run_cli(
        capsys, "eval", "--solution", str(half_order_file), "--initial", "0=1", "--at", "1"
    )
    assert code == 2
    assert out == ""
    assert "--initial cannot be combined with --solution" in err


def test_solving_options_beside_a_solution_file_exit_two(capsys, half_order_file):
    # both were dropped: eval printed the file's rho "0" under --rho 3/2
    source = ("--solution", str(half_order_file))
    for command in (("eval", "--at", "1"), ("verify", HALF_ORDER)):
        for option in ("--rho", "--terms"):
            value = "3/2" if option == "--rho" else "10"
            code, out, err = run_cli(capsys, *command, *source, option, value)
            assert (code, out) == (2, ""), (command, option)
            assert f"{option} cannot be combined with --solution" in err
    code, out, err = run_cli(capsys, "eval", *source, "--rho", "3/2", "--terms", "10", "--at", "1")
    assert (code, out) == (2, "")


def test_index_without_a_solution_file_exits_two(capsys):
    # the index was dropped and the equation solved as if it were not given
    for command in (("eval", CUBIC_THIRD, "--index", "99", "--at", "1"), ("verify", CUBIC_THIRD, "--index", "7")):
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (2, ""), command
        assert "--index needs --solution" in err


# --- every stream argument gets a documented exit code ------------------------------

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}


def _main_quietly(argv):
    """Exit code and stdout of an in-process run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def half_order_file(tmp_path_factory):
    """Basis streams of HALF_ORDER at rho 0, then one entry with offset -1."""
    code, out = _main_quietly(["solve", HALF_ORDER, "--terms", "40"])
    assert code == 0
    payload = json.loads(out)
    payload["solutions"].append({**payload["solutions"][0], "rho": "-1"})
    path = tmp_path_factory.mktemp("half") / "streams.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


_OFFSETS = st.sampled_from([None, "0", "1/2", "3/2", "1/7", "-1/2", "-1", "-2"])
_PINS = st.dictionaries(
    st.one_of(st.integers(-3, -1), st.integers(0, 42)), st.integers(-2, 2), max_size=3
)
_ROWS = st.one_of(st.none(), st.integers(-6, -1), st.integers(0, 45))


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["solve", "eval", "verify"]),
    from_file=st.booleans(),
    rho=_OFFSETS,
    pins=_PINS,
    rows=_ROWS,
    index=st.integers(-3, 3),
    terms=st.integers(-2, 40),
)
def test_stream_arguments_exit_with_a_documented_code(
    half_order_file, command, from_file, rho, pins, rows, index, terms
):
    pinned = pins if command != "verify" else {}
    reads_file = from_file and command != "solve"
    argv = [command, HALF_ORDER]
    if not reads_file:  # the solving options; beside a file they exit 2
        argv.append(f"--terms={terms}")
        if rho is not None:
            argv.append(f"--rho={rho}")
    if pinned:
        argv.append("--initial=" + ",".join(f"{k}={v}" for k, v in pinned.items()))
    if reads_file:
        argv += ["--solution", str(half_order_file), f"--index={index}"]
    if command == "eval":
        argv += ["--at", "1"]
    if command == "verify" and rows is not None:
        argv.append(f"--rows={rows}")
    code, out = _main_quietly(argv)
    assert code in DOCUMENTED_EXIT_CODES
    # a success must rest neither on a negative pin nor on an empty set of rows
    if code == 0 and pinned:
        assert min(pinned) >= 0 and not reads_file
    if code == 0 and reads_file:
        assert index >= 0
    if code == 0 and command == "verify":
        assert json.loads(out)["rows_checked"] >= 1


def test_over_limit_degree_exits_two_within_a_second(capsys):
    # both ran past a 10 s timeout before the parser had a degree limit
    for text in ("(z+1)^100000 f(z+1) - f(z) = 0", "z^5000 D f(z) + f(z) = 0"):
        start = time.perf_counter()
        with deadline(5):
            code, out, err = run_cli(capsys, "analyze", text)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert f"exceeds the limit {MAX_DEGREE}" in err


def test_parentheses_past_the_nesting_limit_exit_two(capsys):
    # about 335 levels used to exhaust the recursion limit: exit 1 with a traceback
    def nested(depth):
        return "(" * depth + "z" + ")" * depth + " D f(z) + f(z) = 0"

    code, _, _ = run_cli(capsys, "analyze", nested(MAX_NESTING))
    assert code == 0
    for depth in (MAX_NESTING + 1, 5000):
        code, out, err = run_cli(capsys, "analyze", nested(depth))
        assert (code, out) == (2, "")
        assert f"nest deeper than the limit {MAX_NESTING} (at position {MAX_NESTING})" in err
        assert "Traceback" not in err


def test_degree_at_the_limit_is_analyzed_within_the_deadline(capsys):
    # 8.8 s wall for the whole command on a shared 2-vCPU host
    with deadline(60):
        code, out, _ = run_cli(capsys, "analyze", f"z^{MAX_DEGREE} D f(z) + f(z) = 0")
    assert code == 0
    assert json.loads(out)["indicial_exponents"] == ["0"] + ["1"] * MAX_DEGREE


README_PINS = "0=1,1=1,2=1/4"


def test_over_limit_order_bits_and_terms_exit_two_within_a_second(capsys):
    # each ran past a 10 s timeout before these limits
    cases = (
        (("analyze", "f(z+3000) - f(z) = 0"), f"exceeds the limit {MAX_ORDER}"),
        (("analyze", "z^500 D^200 f(z) + f(z) = 0"), f"exceeds the limit {MAX_ORDER}"),
        (("analyze", "3^10000000 f(z+1) - f(z) = 0"), f"the limit of {MAX_BITS} bits"),
        (("solve", CUBIC_THIRD, "--terms", "100000", "--initial", README_PINS), f"exceeds the limit {MAX_TERMS}"),
        (("eval", CUBIC_THIRD, f"--terms={MAX_TERMS + 1}", "--at", "1"), f"exceeds the limit {MAX_TERMS}"),
        (("verify", CUBIC_THIRD, f"--terms={MAX_TERMS + 1}"), f"exceeds the limit {MAX_TERMS}"),
    )
    for argv, message in cases:
        start = time.perf_counter()
        with deadline(5):
            code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert message in err


def test_rationals_with_huge_decimal_exponents_exit_two_within_a_second(capsys, tmp_path):
    # Fraction expands a decimal exponent first: 1e200000 as a pin took 13.9 s
    # and printed 3.6 MB, and 1e2000000 as a pin or in a solution file ran
    # past a 30 s timeout
    huge = "1e2000000"
    coefficient = tmp_path / "coefficient.json"
    coefficient.write_text(json.dumps({"solutions": [{"rho": "0", "coefficients": [huge, "1"]}]}))
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"solutions": [{"rho": huge, "coefficients": ["1", "1"]}]}))
    first_order = "D f(z) - f(z) = 0"
    cases = [
        ("solve", first_order, "--terms", "16", "--initial", "0=1e200000"),
        ("solve", first_order, "--terms", "16", "--initial", f"0={huge}"),
        ("solve", first_order, "--terms", "16", f"--rho=-{huge}"),
    ]
    for path in (coefficient, rho):
        cases += [("verify", first_order, "--solution", str(path)), ("eval", "--solution", str(path), "--at", "1")]
    for argv in cases:
        start = time.perf_counter()
        with deadline(5):
            code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert "exceeds 30103 in magnitude" in err, argv
    code, out, _ = run_cli(capsys, "solve", first_order, "--terms", "16", "--initial", "0=1e30000")
    assert code == 0
    assert json.loads(out)["solutions"][0]["coefficients"][0] == "1" + "0" * 30000


def test_a_zero_denominator_is_reported_in_one_short_line(capsys, tmp_path):
    # Fraction's message wrote the whole numerator out: 3000 digits over 0
    # made a 3039-byte line, and 400 000 digits a 400 039-byte line in 3.0 s
    numerator = "9" * 400_000
    stream = {"rho": "0", "coefficients": ["1", "1/2", numerator + "/0"]}
    coefficient, rho = tmp_path / "coefficient.json", tmp_path / "rho.json"
    coefficient.write_text(json.dumps({"solutions": [stream]}))
    rho.write_text(json.dumps({"solutions": [{**stream, "coefficients": ["1"], "rho": f"-{numerator}/00"}]}))
    cases = [
        (("eval", "--solution", str(coefficient), "--at", "0.5"), "malformed solution file: coefficient 2 "),
        (("verify", "D f(z) - f(z) = 0", "--solution", str(rho)), "malformed solution file: rho "),
        (("solve", "D f(z) - f(z) = 0", "--terms", "16", "--initial", f"0=1,2={numerator}/000"), "invalid initial value at index 2: "),
    ]
    for argv, prefix in cases:
        with deadline(5):
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(prefix) and "zero denominator" in err, err[:200]
        assert err.endswith("\n") and err.count("\n") == 1 and len(err.encode()) < 200, err[:200]


def test_a_bare_json_integer_reads_as_its_digits_in_a_string(tmp_path):
    # json's own int() reads 200 001 digits in about 0.2 s, in quadratic time;
    # parsing._read_int reads them in about 0.05 s on a shared 2-vCPU host
    digits = "7" + "1234567890" * 20_000
    bare, string = tmp_path / "bare.json", tmp_path / "string.json"
    bare.write_text('{"solutions": [{"rho": 0, "coefficients": [1, -%s, %s, 0]}]}' % (digits, digits))
    string.write_text(json.dumps({"solutions": [{"rho": "0", "coefficients": ["1", "-" + digits, digits, "0"]}]}))
    start = time.perf_counter()
    got = _read_solution(str(bare), 0)
    assert time.perf_counter() - start < 1
    assert got == _read_solution(str(string), 0)
    assert -got.coeffs[1] == got.coeffs[2] > 10**200_000


def test_order_and_bits_at_the_limits_are_analyzed_within_the_deadline(capsys):
    # 0.4 s wall for each command on a shared 2-vCPU host
    for text in (
        f"f(z+{MAX_ORDER}) - f(z) = 0",
        f"D^{MAX_ORDER} f(z) + z^{MAX_ORDER - 1} f(z) = 0",
        "3^63000 f(z+1) - f(z) = 0",  # 99 849 bits
    ):
        with deadline(30):
            code, out, _ = run_cli(capsys, "analyze", text)
        assert code == 0
        assert json.loads(out)["equation"]["order"] == (1 if text.startswith("3^") else MAX_ORDER)


def test_terms_at_the_limit_are_solved_within_the_deadline(capsys):
    # the pinned stream at the limit: about 1 s for the solve and the sum
    with deadline(30):
        code, out, _ = run_cli(
            capsys, "eval", CUBIC_THIRD, f"--terms={MAX_TERMS}", "--initial", README_PINS, "--at", "2.5"
        )
    assert code == 0
    assert json.loads(out)["point"]["value"] == [4.4478842409913515, 0.0]


def test_characteristic_roots_past_the_double_range(capsys):
    # coefficient ratios past 2**1024 once raised OverflowError out of the polygon;
    # the characteristic root is the 3-fold and 2-fold -1 of the unscaled equations
    for text in ("3^700 z^3 D f(z) + f(z) = 0", "3^700 z^2 D f(z) + f(z) = 0"):
        code, out, _ = run_cli(capsys, "analyze", text)
        assert code == 0
        (segment,) = json.loads(out)["polygon"]["segments"]
        assert all(abs(complex(*root) + 1) < 1e-4 for root in segment["char_roots"])
    # a root of magnitude 3^750 has no double: a documented code and one line
    code, out, err = run_cli(capsys, "analyze", "f(z+2) + 3^1500 z^2 f(z) = 0")
    assert (code, out) == (6, "")
    assert err == "numeric range: a root of magnitude 10^357.8 is outside the double range\n"


def test_eval_of_a_value_past_the_double_range_exits_six(capsys, tmp_path):
    # mpmath converts such a value to inf; it once printed as the non-JSON token Infinity
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"solutions": [{"rho": "0", "coefficients": [str(10**400)] + ["0"] * 10}]}))
    code, out, err = run_cli(capsys, "eval", "--solution", str(path), "--at", "0.5")
    assert (code, out) == (6, "")
    assert err == "evaluation failed: value exceeds the double range\n"


@settings(max_examples=300, deadline=None)
@given(
    sign=st.sampled_from(("", "+", "-")),
    num_digits=st.one_of(st.integers(1, 3), st.integers(630, 650), st.integers(1, 700)),
    den_digits=st.one_of(st.none(), st.integers(1, 3), st.integers(1, 700)),
    zero_den=st.booleans(),
    data=st.data(),
)
def test_rational_reads_plain_literals_as_fraction_does(sign, num_digits, den_digits, zero_den, data):
    # _rational reads a plain [+-]digits[/digits] past parsing._INT_PIECE
    # characters in pieces; the cutoff lies at 640 characters
    def digits(count):
        return data.draw(st.text("0123456789", min_size=count, max_size=count))

    text = sign + digits(num_digits)
    if den_digits is not None:
        text += "/" + ("0" * den_digits if zero_den else digits(den_digits))
    try:
        want = Fraction(text)
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError, match=re.escape(str(exc))):
            _rational(text)
    else:
        got = _rational(text)
        assert (type(got), got) == (Fraction, want)
