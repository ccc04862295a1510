"""cli-cold: one fresh interpreter per operation running a README command.

Each operation starts a fresh interpreter running the ``deltaorder``
command with one of the README commands, waits for it, and byte-compares
its JSON with a golden recorded when the benchmark was added
(``goldens/``).  Float literals are masked out of the byte comparison and
compared within FLOAT_REL_TOL instead, because a more accurate root finder
may legitimately change them.  run.py compiles the bytecode caches before
set-up, so every child starts warm.

The child runs BOOTSTRAP, which does what the installed ``deltaorder``
console script does (import ``deltaorder.cli``, exit with ``main()``'s
code) and then reports on stderr how long the import and ``main`` took and
the child's peak resident memory.  The traced run splits the child's wall
time into interpreter, import and command with it; every run takes the
largest child's peak memory from it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from harness import CheckFailed, Probe, Reference, check
from workloads import CUBIC, L3_TEXT, L5_TEXT, ROUNDS_AHEAD, Job, _rng, _shuffled

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
FLOAT_REL_TOL = 1e-6
SOLUTION_FILE = "stream.json"  # written in set-up by the solve command

CUBIC_COMPACT = "(6z^2+19z+15)D^3f(z)+(z+3)D^2f(z)-Df(z)-f(z)=0"
SOLVE_ARGS = ["solve", CUBIC_COMPACT, "--terms", "200", "--initial", "0=1,1=1,2=1/4"]

# label -> arguments; "{solution}" is replaced by the set-up's stream file
COMMANDS = {
    "analyze": ["analyze", CUBIC],
    "solve": SOLVE_ARGS,
    "construct-1-2": ["construct", "--order", "1/2"],
    "construct-3-4": ["construct", "--order", "3/4"],
    "eval": ["eval", "--solution", "{solution}", "--at", "2.5"],
    "verify": ["verify", CUBIC_COMPACT, "--solution", "{solution}"],
    "compose": ["compose", L3_TEXT, L5_TEXT],
}

BOOTSTRAP = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from deltaorder import cli\n"
    "t1 = time.perf_counter()\n"
    "code = cli.main(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "sys.stdout.flush()\n"
    "import resource\n"
    "rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print('perfbench-timing', t1 - t0, t2 - t1, rss_kib, file=sys.stderr)\n"
    "sys.exit(code)\n"
)

def spawn_slice() -> float:
    """Seconds of one fresh interpreter that imports a few standard modules and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, decimal, fractions, json"], check=True)
    return time.perf_counter() - start


# An operation here is mostly interpreter start and imports: process creation,
# page faults and file mapping, whose speed drifts apart from in-process
# Python's.  So cli-cold scales by a small interpreter start instead (about
# 70 ms on the 2-vCPU host); against it the commands' times spread 0.05-0.10
# where the in-process reference left 0.13-0.22.
SPAWN_REFERENCE = Reference(spawn_slice, 0.07)

_TOKEN = re.compile(
    r'"(?:[^"\\]|\\.)*"|-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?|-?Infinity|NaN'
)


def mask_floats(text: str) -> tuple[str, list[float]]:
    """The text with every float literal outside strings replaced by '#', and the floats."""
    floats = []

    def replace(match):
        token = match.group(0)
        if token.startswith('"') or not any(ch in token for ch in ".eEIN"):
            return token
        floats.append(float(token))
        return "#"

    return _TOKEN.sub(replace, text), floats


def compare_with_golden(output: str, golden: str):
    masked, values = mask_floats(output)
    masked_golden, golden_values = mask_floats(golden)
    if masked != masked_golden:
        at = next(
            (i for i, (a, b) in enumerate(zip(masked, masked_golden)) if a != b),
            min(len(masked), len(masked_golden)),
        )
        raise CheckFailed(f"output differs from the golden at masked byte {at}")
    for k, (a, b) in enumerate(zip(values, golden_values)):
        check(
            abs(a - b) <= FLOAT_REL_TOL * max(abs(a), abs(b)) + 1e-12,
            f"float {k}: {a} differs from the golden {b}",
        )


def load_goldens() -> dict[str, str]:
    return {
        label: (GOLDEN_DIR / f"{label}.json").read_text(encoding="utf-8") for label in COMMANDS
    }


class CliCold:
    """One README command per operation, each in a fresh interpreter."""

    name = "cli-cold"
    why = (
        "interpreter start, import deltaorder, argparse and JSON output dominate: "
        "the user-facing wall time of one command"
    )
    deadline_s = 60.0
    min_rounds = 5
    ladders = ()
    reference = SPAWN_REFERENCE

    def __init__(self, seed: int, src: Path, workdir: Path):
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.rounds: list[list[Job]] = []
        self.goldens: dict[str, str] = {}
        self.env = dict(os.environ, PYTHONPATH=str(src))
        # phase -> (op id, measured seconds) per traced operation
        self.samples: dict[str, list[tuple[int, float]]] = {
            "interpreter_s": [],
            "import_s": [],
            "command_s": [],
        }
        self.child_peak_rss_mb = 0.0

    def setup(self, probe: Probe):
        # This process and its children stay on one of the allowed CPUs: the
        # vCPUs of a shared host differ in speed at the same moment, and the
        # reference interpreters must start where the commands do.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.goldens = load_goldens()
        self.workdir.mkdir(parents=True, exist_ok=True)
        solution = self.workdir / SOLUTION_FILE
        solution.write_text(self.run_command(SOLVE_ARGS).stdout, encoding="utf-8")
        self.rounds = self.make_rounds()
        self.run(Job("analyze", "cli"), probe)

    def make_rounds(self) -> list[list[Job]]:
        rng = _rng(self.name, self.seed)
        return [
            _shuffled(rng, [Job(label, "cli") for label in COMMANDS]) for _ in range(ROUNDS_AHEAD)
        ]

    def argv(self, label: str) -> list[str]:
        solution = str(self.workdir / SOLUTION_FILE)
        return [arg.replace("{solution}", solution) for arg in COMMANDS[label]]

    def run_command(self, args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", BOOTSTRAP, *args],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
        )

    def run(self, job: Job, probe: Probe):
        start = time.perf_counter()
        done = probe.call("cli.child", self.run_command, self.argv(job.label))
        wall = time.perf_counter() - start
        check(done.returncode == 0, f"exit code {done.returncode}: {done.stderr.strip()[-300:]}")
        compare_with_golden(done.stdout, self.goldens[job.label])
        marker = done.stderr.strip().splitlines()[-1].split()
        check(marker[0] == "perfbench-timing", "the bootstrap reported no timing")
        import_s, command_s = float(marker[1]), float(marker[2])
        self.child_peak_rss_mb = max(self.child_peak_rss_mb, int(marker[3]) / 1024)
        if probe.tracing:
            probe.count("cli.stdout_bytes", len(done.stdout.encode("utf-8")))
            self.samples["import_s"].append((probe.op_id, import_s))
            self.samples["command_s"].append((probe.op_id, command_s))
            self.samples["interpreter_s"].append((probe.op_id, wall - import_s - command_s))


def record_goldens(src: Path, workdir: Path):
    """Write the golden outputs of every command from the program in ``src``."""
    workload = CliCold(0, src, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    solve = workload.run_command(SOLVE_ARGS)
    (workdir / SOLUTION_FILE).write_text(solve.stdout, encoding="utf-8")
    for label in COMMANDS:
        done = workload.run_command(workload.argv(label))
        if done.returncode != 0:
            raise SystemExit(f"{label}: exit code {done.returncode}\n{done.stderr}")
        json.loads(done.stdout)
        (GOLDEN_DIR / f"{label}.json").write_text(done.stdout, encoding="utf-8")
