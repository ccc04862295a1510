"""CLI output against recorded goldens.

The JSON goldens are the benchmark's (perfbench/goldens); the ``--format
human`` goldens are tests/goldens/human-*.txt.  The goldens are read, never
rewritten.  Output is compared byte for byte, except the characteristic roots
of the construct 3/4 and analyze payloads: numpy's root finder may scatter a
multiple root such as the 4-fold -1 of construct 3/4, so their float literals
are masked and compared within a relative tolerance instead.

tests/goldens/manifest.json holds the exit code and the sha256 of stdout,
and of stderr where there is any, of ``construct --order q/p`` for every
coprime q/p with p <= 8, its char_roots floats masked as above, and of the
README commands, their ``--format human`` forms, one command per exit code 2
to 6, one ``analyze`` per root branch, the ``eval`` and ``verify`` of the
cubic at offset 3/2, and the ``analyze`` and ``solve`` of a wide window, whose
floats are masked only where numpy's root finder gives them.  The JSON
stdout of each of its commands that exits 0 must parse with no NaN or
Infinity token.  Outside pytest the file prints the manifest anew, or
names the entries that no longer match it, so that a change of output names
exactly the commands it changes:

    PYTHONPATH=src python tests/test_goldens.py           # print the manifest anew
    PYTHONPATH=src python tests/test_goldens.py --diff    # print each differing argv, exit 1 if any

tests/slow_goldens.py checks commands at the input limits against a second
manifest.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from deltaorder.cli import main

from fixtures_equations import CUBIC_THIRD, L3_TEXT, L5_TEXT, deadline, strict_json

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
HUMAN_GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
CUBIC = "(6z^2+19z+15)D^3f(z)+(z+3)D^2f(z)-Df(z)-f(z)=0"
SOLVE_ARGS = ["solve", CUBIC, "--terms", "200", "--initial", "0=1,1=1,2=1/4"]
WIDE_WINDOW = "z^50 D^7 f(z) + (z+2)^30 D f(z) + f(z) = 0"
FLOAT_REL_TOL = 1e-6

# char_roots hold only numbers, so every literal with a point or exponent is a float
_FLOAT = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?[eE][+-]?\d+|-?(?:0|[1-9]\d*)\.\d+")


def _mask_root_floats(text: str, keys=("char_roots",)):
    """The text with the float literals under ``keys`` masked as '#', and the floats.

    A key's value is its JSON array, or the rest of its line in ``--format human``.
    """
    pieces, floats, pos = [], [], 0
    names = "|".join(keys)
    for match in re.finditer(rf'"(?:{names})": \[|^ *(?:{names}): ', text, re.MULTILINE):
        if match.group().endswith(": "):
            end = text.find("\n", match.end())
            end = len(text) if end < 0 else end
        else:
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


def _assert_matches_with_root_tolerance(out: str, label: str, root_floats: int):
    masked, values = _mask_root_floats(out)
    golden_masked, golden_values = _mask_root_floats(_golden(label))
    assert masked == golden_masked
    assert len(values) == len(golden_values) == root_floats
    for a, b in zip(values, golden_values):
        assert abs(a - b) <= FLOAT_REL_TOL * max(abs(a), abs(b)) + 1e-12


def test_construct_three_quarters_matches_golden(capsys):
    out = _run(capsys, ["construct", "--order", "3/4"])
    _assert_matches_with_root_tolerance(out, "construct-3-4", 14)


def test_analyze_matches_golden(capsys):
    _assert_matches_with_root_tolerance(_run(capsys, ["analyze", CUBIC_THIRD]), "analyze", 4)


def test_compose_matches_golden(capsys):
    assert _run(capsys, ["compose", L3_TEXT, L5_TEXT]) == _golden("compose")


def test_eval_matches_golden(capsys, solution_file):
    out = _run(capsys, ["eval", "--solution", str(solution_file), "--at", "2.5"])
    assert out == _golden("eval")


HUMAN_COMMANDS = {
    "analyze": ["analyze", CUBIC_THIRD],
    "solve": ["solve", CUBIC_THIRD, "--terms", "70", "--initial", "0=1,1=1,2=1/4"],
    "construct": ["construct", "--order", "1/2"],
    "eval": ["eval", "--solution", "{solution}", "--at", "2.5", "--radii", "50,100,200,400"],
    "verify": ["verify", CUBIC_THIRD, "--solution", "{solution}"],
    "compose": ["compose", L3_TEXT, L5_TEXT],
}


@pytest.mark.parametrize("command", HUMAN_COMMANDS)
def test_human_format_matches_golden(capsys, solution_file, command):
    argv = [arg.replace("{solution}", str(solution_file)) for arg in HUMAN_COMMANDS[command]]
    out = _run(capsys, argv + ["--format", "human"])
    assert out == (HUMAN_GOLDEN_DIR / f"human-{command}.txt").read_text(encoding="utf-8")


MANIFEST = HUMAN_GOLDEN_DIR / "manifest.json"
CONSTRUCT_ORDERS = [
    ["construct", "--order", f"{q}/{p}"] for p in range(2, 9) for q in range(1, p) if math.gcd(q, p) == 1
]
# the README's commands but construct 3/4, one of the orders above; "{solution}"
# stands for the README's stream.json, recorded as perfbench/goldens/solve.json
README_COMMANDS = [
    ["analyze", CUBIC_THIRD],
    SOLVE_ARGS,
    ["solve", CUBIC, "--rho", "3/2"],
    ["eval", "--solution", "{solution}", "--at", "2.5"],
    ["eval", "--solution", "{solution}", "--radii", "50,100,200,400,800"],
    ["eval", "--solution", "{solution}", "--radii", "110", "--samples", "128"],
    ["verify", CUBIC, "--solution", "{solution}"],
    ["eval", CUBIC, "--terms", "120", "--initial", "0=1,1=1,2=1/4", "--at", "1.5"],
    ["compose", L3_TEXT, L5_TEXT],
]
# (argv, the keys whose floats numpy's root finder gives, masked)
MANIFEST_COMMANDS = (
    [(argv, ("char_roots",)) for argv in CONSTRUCT_ORDERS]
    + [(argv, ()) for argv in README_COMMANDS]
    + [(argv + ["--format", "human"], ()) for argv in README_COMMANDS]
    + [
        (["construct", "--order", "3/4", "--format", "human"], ("char_roots",)),
        (["analyze", "(z D f(z) = 0"], ()),  # exit 2
        (["analyze", "f(z) = 0"], ()),  # exit 3
        (["solve", CUBIC, "--rho", "1/7", "--terms", "40"], ()),  # exit 4
        (["construct", "--order", "2/4"], ()),  # exit 5
        (["analyze", "f(z+2) + 3^1500 z^2 f(z) = 0"], ()),  # exit 6
        # one analyze per root branch: two-term on the axes, quadratic, companion, binomial, out of range
        (["analyze", "f(z+2) - 2 f(z+1) + 5 f(z) = 0"], ()),
        (["analyze", "(z^2 + z + 1) D f(z) + f(z) = 0"], ()),
        (["analyze", "(z^3 + z + 1) D f(z) + f(z) = 0"], ("char_roots", "indicial_exponents")),
        (["analyze", "(z^3 - 2) D f(z) + f(z) = 0"], ("char_roots",)),
        (["analyze", "f(z+2) + 3^800 z^2 f(z) = 0"], ()),
        (["eval", CUBIC, "--rho", "3/2", "--at", "0.25"], ()),
        # a wide window (an 83 kB analyze printout), its solve, and rows at a rational offset
        (["analyze", WIDE_WINDOW], ("char_roots",)),
        (["solve", WIDE_WINDOW, "--terms", "80"], ()),
        (["verify", CUBIC, "--rho", "3/2", "--terms", "80"], ()),
    ]
)


def _manifest_entry(argv, masked) -> dict:
    out, err = io.StringIO(), io.StringIO()
    run = [arg.replace("{solution}", str(GOLDEN_DIR / "solve.json")) for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(run)
    if code == 0 and "--format" not in argv:
        strict_json(out.getvalue())  # no NaN or Infinity token
    entry = {"argv": argv, "exit": code, "stdout_sha256": _sha256(_mask_root_floats(out.getvalue(), masked)[0])}
    if err.getvalue():
        entry["stderr_sha256"] = _sha256(err.getvalue())
    return entry


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_manifest(part: slice):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in manifest] == [argv for argv, _ in MANIFEST_COMMANDS]
    with deadline(30):
        for entry, (argv, masked) in zip(manifest[part], MANIFEST_COMMANDS[part]):
            assert _manifest_entry(argv, masked) == entry


def test_construct_orders_match_the_manifest():
    _check_manifest(slice(len(CONSTRUCT_ORDERS)))  # about 1.3 s on a shared 2-vCPU host


def test_commands_match_the_manifest():
    _check_manifest(slice(len(CONSTRUCT_ORDERS), None))  # about 1 s on a shared 2-vCPU host


if __name__ == "__main__":
    entries = [_manifest_entry(argv, masked) for argv, masked in MANIFEST_COMMANDS]
    if sys.argv[1:] != ["--diff"]:
        print(json.dumps(entries, indent=1))
        sys.exit()
    recorded = {json.dumps(entry["argv"]): entry for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))}
    differing = [json.dumps(entry["argv"]) for entry in entries if recorded.get(json.dumps(entry["argv"])) != entry]
    print("\n".join(differing) or f"all {len(entries)} entries match {MANIFEST.name}")
    sys.exit(1 if differing else 0)
