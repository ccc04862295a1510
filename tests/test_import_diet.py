"""Each module loads at its first use, not at import.

numpy and mpmath load at their first numeric use; ``dataclasses`` (with
``inspect``), ``deltaorder.series`` and ``deltaorder.construction`` only in
the commands that handle coefficient streams; ``deltaorder.recurrences``
only in the commands that derive a recurrence.  Each check runs in a fresh
interpreter, since this test process has long loaded them all.
"""

import ast
import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltaorder

from fixtures_equations import CUBIC_THIRD, L3_TEXT, L5_TEXT

SRC = Path(deltaorder.__file__).resolve().parent.parent

# run the CLI, then report every module the process loaded
PROBE = (
    "import json, sys\n"
    "from deltaorder import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
NUMERIC = ("numpy", "mpmath")
# what only the commands that read or write a coefficient stream load
STREAM_MODULES = {"dataclasses", "inspect", "deltaorder.series", "deltaorder.construction"}


def run(argv, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


@functools.lru_cache(maxsize=None)
def startup_modules() -> frozenset[str]:
    """The modules a bare interpreter loads before running any code, ``site`` hooks included."""
    done = run([sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"])
    assert done.returncode == 0, done.stderr
    return frozenset(json.loads(done.stdout))


def probe(*argv, cwd=None) -> set[str]:
    """The modules a fresh interpreter loaded, past its start, to run the CLI with ``argv``."""
    done = run([sys.executable, "-c", PROBE, *argv], cwd=cwd)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1])) - startup_modules()


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream")
    done = run([sys.executable, "-m", "deltaorder.cli", "solve", CUBIC_THIRD, "--terms", "80", "--initial", "0=1,1=1,2=1/4"])
    assert done.returncode == 0, done.stderr
    (path / "stream.json").write_text(done.stdout, encoding="utf-8")
    return path


def test_importing_the_package_loads_no_submodule():
    code = "import json, sys\nimport deltaorder\nprint(json.dumps(sorted(sys.modules)))\n"
    done = run([sys.executable, "-c", code])
    assert done.returncode == 0, done.stderr
    assert [m for m in json.loads(done.stdout) if m.startswith("deltaorder.")] == []


def test_importing_the_cli_loads_neither_library():
    assert [m for m in NUMERIC if m in probe()] == []


def test_importing_the_cli_loads_no_stream_module():
    assert sorted(probe() & STREAM_MODULES) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("analyze", CUBIC_THIRD), []),
        (("verify", CUBIC_THIRD, "--solution", "stream.json"), []),
        (("compose", L3_TEXT, L5_TEXT), []),
        (("eval", "--solution", "stream.json", "--at", "2.5"), ["mpmath"]),
        # one solved stream, pinned or a one-dimensional basis, needs no chi fit to choose it
        (("eval", CUBIC_THIRD, "--terms", "120", "--initial", "0=1,1=1,2=1/4", "--at", "1.5"), ["mpmath"]),
        (("verify", CUBIC_THIRD, "--rho", "3/2"), []),
    ],
    ids=["analyze", "verify", "compose", "eval", "eval-pinned", "verify-one-stream"],
)
def test_commands_load_only_what_they_compute_with(stream_dir, argv, loaded):
    assert [m for m in NUMERIC if m in probe(*argv, cwd=stream_dir)] == loaded


@pytest.mark.parametrize(
    "argv", [("analyze", CUBIC_THIRD), ("compose", L3_TEXT, L5_TEXT)], ids=["analyze", "compose"]
)
def test_commands_without_a_stream_load_no_dataclasses(argv):
    assert sorted(probe(*argv) & STREAM_MODULES) == []


def test_compose_loads_only_the_modules_it_computes_with():
    # compose derives no recurrence, so ``deltaorder.recurrences`` (with cmath) stays out
    loaded = sorted(m for m in probe("compose", L3_TEXT, L5_TEXT) if m.startswith("deltaorder"))
    assert loaded == [
        "deltaorder", "deltaorder._record", "deltaorder.cli", "deltaorder.equations", "deltaorder.errors",
        "deltaorder.newton", "deltaorder.parsing", "deltaorder.polynomials",
    ]


def test_two_term_indicial_roots_load_neither_library():
    # the residual z^3 - 2 went to np.roots; its roots are now the cube roots of 2
    code = (
        "import json, sys\n"
        "import deltaorder as do\n"
        "do.indicial_exponents(do.normalize_to_delta(do.parse_equation('(z^3 - 2) D f(z) + f(z) = 0')))\n"
        "print(json.dumps([m for m in ('numpy', 'mpmath') if m in sys.modules]))\n"
    )
    done = run([sys.executable, "-c", code])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_every_public_name_resolves():
    for name in deltaorder.__all__:
        assert getattr(deltaorder, name) is not None, name
    namespace = {}
    exec("from deltaorder import *", namespace)
    assert set(deltaorder.__all__) <= set(namespace)
    assert namespace["eval_series"] is deltaorder.evaluation.eval_series
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        deltaorder.no_such_name


PUBLIC_NAMES = {
    "AdamsPolygon", "CoefficientRecurrence", "ConstructionResult", "DifferenceEquation",
    "EmpiricalOrder", "EvalResult", "GeneralForm", "GrowthEstimate", "NEG_INF",
    "NewtonAnalysis", "OperatorTerm", "OrderEntry", "Poly", "PolygonSegment",
    "RoundTripReport", "SeriesSolution", "VerificationReport", "adams_polygon", "analyze",
    "apply_operator", "compose_operators", "construct_equation", "derive_recurrence",
    "empirical_order", "estimate_chi", "eval_series", "format_delta_form", "format_general",
    "indicial_exponents", "max_modulus", "normalize_to_delta", "order_list", "parse_equation",
    "poly_delta", "roundtrip_check", "s_sequence", "shifted_recurrence", "solve_series",
    "sub_one_branches", "verdict", "verify_recurrence", "working_precision",
}


def test_the_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 42
    assert len(deltaorder.__all__) == len(set(deltaorder.__all__))
    assert set(deltaorder.__all__) == PUBLIC_NAMES


# the parameter names of every callable in __all__; classes by their constructor
PUBLIC_SIGNATURES = {
    "AdamsPolygon": ("points", "segments", "normalization_degree", "normalization_index"),
    "CoefficientRecurrence": ("sums", "rho_offset"),
    "ConstructionResult": ("q", "p", "weights", "template", "canonical", "predicted_series"),
    "DifferenceEquation": ("coeffs",),
    "EmpiricalOrder": ("radii", "log_max_modulus", "rho_hat", "fit_residual"),
    "EvalResult": ("value", "terms_used", "tail_bound", "log_scale"),
    "GeneralForm": ("terms",),
    "GrowthEstimate": ("fit_window", "model_params", "residual"),
    "NewtonAnalysis": ("degrees", "s_seq", "orders"),
    "OperatorTerm": ("coefficient", "delta_power", "shift"),
    "OrderEntry": ("rho", "max_count"),
    "Poly": ("coeffs",),
    "PolygonSegment": ("start", "end", "char_roots"),
    "RoundTripReport": ("stages", "analysis", "polygon", "chi_hat"),
    "SeriesSolution": ("rho_offset", "coeffs", "provenance"),
    "VerificationReport": ("rows_checked", "max_residual", "first_failing_row"),
    "adams_polygon": ("rec",),
    "analyze": ("eq",),
    "apply_operator": ("eq", "solution", "upto"),
    "compose_operators": ("outer", "inner"),
    "construct_equation": ("q", "p"),
    "derive_recurrence": ("eq",),
    "empirical_order": ("sol", "radii", "samples", "tol"),
    "estimate_chi": ("coeffs",),
    "eval_series": ("sol", "z", "tol"),
    "format_delta_form": ("eq",),
    "format_general": ("g",),
    "indicial_exponents": ("eq",),
    "max_modulus": ("sol", "radius", "samples", "tol"),
    "normalize_to_delta": ("g",),
    "order_list": ("degrees", "s_seq"),
    "parse_equation": ("text",),
    "poly_delta": ("p",),
    "roundtrip_check": ("result",),
    "s_sequence": ("degrees",),
    "shifted_recurrence": ("eq", "rho"),
    "solve_series": ("rec", "count", "initial"),
    "sub_one_branches": ("polygon",),
    "verdict": ("analysis",),
    "verify_recurrence": ("rec", "sol", "rows"),
    "working_precision": (),
}


def test_public_signatures_are_pinned():
    # a parameter comes back only with an edit here: each one needs two callers that vary it
    callables = {name for name in deltaorder.__all__ if callable(getattr(deltaorder, name))}
    assert callables == set(PUBLIC_SIGNATURES)
    for name, params in PUBLIC_SIGNATURES.items():
        assert tuple(inspect.signature(getattr(deltaorder, name)).parameters) == params, name


def _names_used(path):
    """Every name that ``path`` loads or reads as an attribute; definitions and imports are not uses."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller_outside_the_tests():
    # public API that only tests reach is deleted, not kept; a name comes back with a caller
    modules = [path for path in (SRC / "deltaorder").glob("*.py") if path.name != "__init__.py"]
    modules += (SRC.parent / "perfbench").glob("*.py")
    used = {name for path in modules for name in _names_used(path)}
    assert sorted(set(deltaorder.__all__) - used) == []


EXACT_MODULES = ("polynomials", "equations", "parsing", "newton", "recurrences", "series", "construction")


def _imported_names(tree):
    """Every module and name an import statement anywhere in ``tree`` reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            for alias in node.names:
                yield base + alias.name if base.endswith(".") else f"{base}.{alias.name}"


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_never_import_the_evaluation_layer(module):
    tree = ast.parse((SRC / "deltaorder" / f"{module}.py").read_text(encoding="utf-8"))
    parts = [name.split(".") for name in _imported_names(tree)]
    assert not [p for p in parts if p[0] == "mpmath" or "evaluation" in p], module


@pytest.mark.parametrize("path", sorted((SRC / "deltaorder").glob("*.py")), ids=lambda p: p.stem)
def test_no_module_relies_on_assert(path):
    # an assert vanishes under python -O; invariants are raised exceptions
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"
