"""CLI output at the input limits against a second manifest, outside the test suite.

These commands take seconds to tens of seconds each and print up to 60 MB,
so pytest does not collect this file.  tests/goldens/slow-manifest.json holds
their exit codes and output hashes in the form of tests/goldens/manifest.json,
with the floats that numpy's root finder gives masked the same way.  An entry
may also set environment variables for its command; the manifest records them
under "env".  The check runs each command in a fresh child interpreter and
prints its wall time, interpreter start included, and the child's peak RSS,
so that a time or memory regression at the input limits shows in the output.

    PYTHONPATH=src python tests/slow_goldens.py           # check, exit 1 on a mismatch
    PYTHONPATH=src python tests/slow_goldens.py --print   # print the manifest anew
"""

import json
import os
import resource
import subprocess
import sys
import time
from unittest import mock

from test_goldens import CUBIC, HUMAN_GOLDEN_DIR, _manifest_entry

SLOW_MANIFEST = HUMAN_GOLDEN_DIR / "slow-manifest.json"
AT_THE_DEGREE_LIMIT = "z^500 D f(z) + f(z) = 0"
README_EVAL = ["eval", CUBIC, "--initial", "0=1,1=1,2=1/4"]
# (argv, the keys whose floats numpy's root finder gives, masked[, environment])
SLOW_COMMANDS = [
    (["analyze", AT_THE_DEGREE_LIMIT], ()),
    (["solve", AT_THE_DEGREE_LIMIT, "--terms", "520"], ()),
    (["construct", "--order", "1/64"], ("char_roots",)),
    (["construct", "--order", "1/101"], ("char_roots",)),
    # sparse support q = 50 at the largest p: verification reads one window entry in 50
    (["construct", "--order", "50/101"], ("char_roots",)),
    # the summation kernel at the smallest and a wide working precision
    *(
        (README_EVAL + tail, (), {"DELTAORDER_PRECISION": bits})
        for bits in ("53", "1024")
        for tail in (["--radii", "20,50,100,200", "--samples", "4096"], ["--at", "31.7+21.2j"])
    ),
]


def _entry(command) -> dict:
    args, masked, env = (*command, {})[:3]
    with mock.patch.dict(os.environ, env):
        entry = _manifest_entry(args, masked)
    return {"argv": entry.pop("argv"), **({"env": env} if env else {}), **entry}


def _in_child(command) -> tuple[dict, float, float]:
    """(manifest entry, wall seconds, peak RSS in MB) of one command, run in a fresh interpreter."""
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(SLOW_COMMANDS.index(command))],
        capture_output=True,
        text=True,
        check=True,
    )
    wall = time.perf_counter() - start
    report = json.loads(child.stdout)
    return report["entry"], wall, report["peak_rss_mb"]


def main(argv) -> int:
    if argv == ["--print"]:
        print(json.dumps([_entry(command) for command in SLOW_COMMANDS], indent=1))
        return 0
    if argv[:1] == ["--child"]:
        entry = _entry(SLOW_COMMANDS[int(argv[1])])
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"entry": entry, "peak_rss_mb": peak}))
        return 0
    manifest = json.loads(SLOW_MANIFEST.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in manifest] == [command[0] for command in SLOW_COMMANDS]
    failed = 0
    for entry, command in zip(manifest, SLOW_COMMANDS):
        got, wall, peak = _in_child(command)
        ok = got == entry
        failed += not ok
        env = [f"{key}={value}" for key, value in entry.get("env", {}).items()]
        print(f"{'ok' if ok else 'MISMATCH':8} {wall:6.1f} s {peak:7.1f} MB  {' '.join(env + command[0])}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
