import json

from deltaorder.cli import main

from fixtures_equations import CUBIC_THIRD, L3_TEXT, L5_TEXT, L8_COEFFS, QUARTIC_34


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
    from fractions import Fraction

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
