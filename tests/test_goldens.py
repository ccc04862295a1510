"""CLI output against the recorded goldens of the benchmark (perfbench/goldens).

The goldens are read, never rewritten.  Output is compared byte for byte,
except the characteristic roots of the construct 3/4 payload: around its
4-fold root at -1 they carry root-finder round-off, so their float literals
are masked and compared within a relative tolerance instead.
"""

import re
from pathlib import Path

import pytest

from deltaorder.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
CUBIC = "(6z^2+19z+15)D^3f(z)+(z+3)D^2f(z)-Df(z)-f(z)=0"
SOLVE_ARGS = ["solve", CUBIC, "--terms", "200", "--initial", "0=1,1=1,2=1/4"]
FLOAT_REL_TOL = 1e-6

# char_roots hold only numbers, so every literal with a point or exponent is a float
_FLOAT = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?[eE][+-]?\d+|-?(?:0|[1-9]\d*)\.\d+")


def _mask_root_floats(text: str):
    """The text with the float literals inside "char_roots" arrays masked as '#', and the floats."""
    pieces, floats, pos = [], [], 0
    for match in re.finditer(r'"char_roots": \[', text):
        depth = 0
        for end in range(match.end() - 1, len(text)):
            depth += {"[": 1, "]": -1}.get(text[end], 0)
            if depth == 0:
                break
        pieces.append(text[pos : match.end()])
        pieces.append(_FLOAT.sub("#", text[match.end() : end]))
        floats += [float(token) for token in _FLOAT.findall(text, match.end(), end)]
        pos = end
    pieces.append(text[pos:])
    return "".join(pieces), floats


def _run(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _golden(label: str) -> str:
    return (GOLDEN_DIR / f"{label}.json").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def solution_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "stream.json"
    path.write_text(_golden("solve"), encoding="utf-8")
    return path


def test_solve_matches_golden(capsys):
    assert _run(capsys, SOLVE_ARGS) == _golden("solve")


def test_verify_matches_golden(capsys, solution_file):
    out = _run(capsys, ["verify", CUBIC, "--solution", str(solution_file)])
    assert out == _golden("verify")


def test_construct_half_matches_golden(capsys):
    assert _run(capsys, ["construct", "--order", "1/2"]) == _golden("construct-1-2")


def test_construct_three_quarters_matches_golden(capsys):
    masked, values = _mask_root_floats(_run(capsys, ["construct", "--order", "3/4"]))
    golden_masked, golden_values = _mask_root_floats(_golden("construct-3-4"))
    assert masked == golden_masked
    assert len(values) == len(golden_values) == 14
    for a, b in zip(values, golden_values):
        assert abs(a - b) <= FLOAT_REL_TOL * max(abs(a), abs(b)) + 1e-12
