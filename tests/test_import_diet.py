"""numpy and mpmath load at their first numeric use, not at import.

Each check runs in a fresh interpreter, since this test process has long
loaded both libraries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltaorder

from fixtures_equations import CUBIC_THIRD, L3_TEXT, L5_TEXT

SRC = Path(deltaorder.__file__).resolve().parent.parent

# run the CLI, then report which of the two libraries the process loaded
PROBE = (
    "import json, sys\n"
    "from deltaorder import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps([m for m in ('numpy', 'mpmath') if m in sys.modules]), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run(argv, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def probe(*argv, cwd=None) -> list[str]:
    """The libraries a fresh interpreter loaded to run the CLI with ``argv``."""
    done = run([sys.executable, "-c", PROBE, *argv], cwd=cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream")
    done = run([sys.executable, "-m", "deltaorder.cli", "solve", CUBIC_THIRD, "--terms", "80", "--initial", "0=1,1=1,2=1/4"])
    assert done.returncode == 0, done.stderr
    (path / "stream.json").write_text(done.stdout, encoding="utf-8")
    return path


def test_importing_the_cli_loads_neither_library():
    assert probe() == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("verify", CUBIC_THIRD, "--solution", "stream.json"), []),
        (("compose", L3_TEXT, L5_TEXT), []),
        (("eval", "--solution", "stream.json", "--at", "2.5"), ["mpmath"]),
    ],
    ids=["verify", "compose", "eval"],
)
def test_commands_load_only_what_they_compute_with(stream_dir, argv, loaded):
    assert probe(*argv, cwd=stream_dir) == loaded


def test_every_public_name_resolves():
    for name in deltaorder.__all__:
        assert getattr(deltaorder, name) is not None, name
    namespace = {}
    exec("from deltaorder import *", namespace)
    assert set(deltaorder.__all__) <= set(namespace)
    assert namespace["eval_series"] is deltaorder.evaluation.eval_series
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        deltaorder.no_such_name
