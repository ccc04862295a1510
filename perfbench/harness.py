"""Workload-independent machinery: spans, deadlines, the timed loop, statistics.

Every call the benchmark makes into deltaorder goes through ``Probe.call``.
The probe always adds the call's duration to the current operation's
latency, so latencies and round times leave out the benchmark's own
checks; with tracing on it also keeps a span (operation id, layer name,
start, end, outcome) in memory, and ``Probe.count`` / ``Probe.peak`` keep
per-layer work counters.  Nothing is written until the run ends.

Host speed.  The benchmark runs on a few vCPUs of a shared host whose speed
drifts by up to 1.7x in phases of seconds to minutes, far more than a
regression bound.  So the timed loop runs a fixed stdlib-only reference
computation (``reference_slice``, about 2 ms of Fraction arithmetic and dict
updates that stay in cache, no deltaorder code) before every operation, more
slices before a long one, and every timing is reported in normalised
seconds: the measured seconds times REFERENCE_NOMINAL_S over the median of
the reference slices just before and just after it, that is, the time it
would take while the reference runs at its nominal speed.  A change to
deltaorder moves a normalised time exactly as it moves the raw one; a slow
phase of the host moves both the operation and the reference and cancels
out.  Raw seconds are printed next to the metrics.  A workload whose
operations are not in-process Python (cli-cold starts interpreters) brings
its own ``Reference``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable
from fractions import Fraction

# Candidate tail percentiles, highest first.  A workload reports the highest
# one that still leaves ten samples beyond it in its shortest allowed run.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0)


# About the median seconds of one reference slice on the 2-vCPU host the
# benchmark was tuned on (Python 3.11); a scale constant only, it sets what
# "normalised second" means.
REFERENCE_NOMINAL_S = 0.002
# An operation is normalised by the slices run just before and just after it,
# at least REFERENCE_MIN_SLICES of them (taken from further out if need be).
REFERENCE_MIN_SLICES = 4
# Before an operation, slices worth REFERENCE_SHARE of the previous
# operation's time run, at most REFERENCE_MAX_SLICES.
REFERENCE_SHARE = 0.03
REFERENCE_MAX_SLICES = 8


def _reference_work():
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(1, k)
    table: dict[int, int] = {}
    for k in range(3000):
        table[k % 97] = table.get(k % 97, 0) + k * k
    return total, table


def reference_slice() -> float:
    """Seconds of one run of the fixed reference computation."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Reference:
    """A fixed computation to time next to the program, and its nominal seconds."""

    run: Callable[[], float]  # seconds of one slice
    nominal_s: float

    def group(self, last_busy: float) -> list[float]:
        """Slices worth REFERENCE_SHARE of ``last_busy`` seconds, one to REFERENCE_MAX_SLICES."""
        wanted = round(REFERENCE_SHARE * last_busy / self.nominal_s)
        return [self.run() for _ in range(min(REFERENCE_MAX_SLICES, max(1, wanted)))]

    def factor(self, slices) -> float:
        """Normalised seconds per measured second, from slices taken nearby."""
        return self.nominal_s / statistics.median(slices)


def recurrence_slice() -> float:
    """Seconds of a Fraction recurrence whose terms grow to a few thousand bits."""
    start = time.perf_counter()
    a, b = Fraction(1), Fraction(1, 3)
    for n in range(2, 140):
        a, b = b, (b * (n + 1) + a) / (n * n + 1)
    return time.perf_counter() - start


IN_PROCESS = Reference(reference_slice, REFERENCE_NOMINAL_S)
# For workloads whose time goes to long exact series: against it the solve and
# round-trip operations spread 0.09-0.11 per operation on the 2-vCPU host,
# against IN_PROCESS 0.20-0.25 (whose small Fractions sped up 1.7x in some
# host phases where the long series sped up far less).
BIG_FRACTIONS = Reference(recurrence_slice, 0.0019)


def normalised_call(fn, *args):
    """``fn(*args)``'s result and its normalised seconds (three slices before, three after)."""
    before = [reference_slice() for _ in range(3)]
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    after = [reference_slice() for _ in range(3)]
    return result, seconds * IN_PROCESS.factor(before + after)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's oracle."""


class DeadlineExceeded(Exception):
    """An operation ran past its per-operation deadline."""


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded inside the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"operation exceeded its {seconds:g} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Probe:
    """Times the program calls of each operation; records spans when tracing."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[tuple[int, str, float, float, bool]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op_id = 0
        self.op_busy = 0.0

    def begin(self, op_id: int):
        self.op_id = op_id
        self.op_busy = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self.op_busy += end - start
            if self.tracing:
                self.spans.append((self.op_id, name, start, end, ok))

    def count(self, name: str, value: float):
        self.counts[name] += value

    def peak(self, name: str, value: float):
        if value > self.maxima.get(name, -math.inf):
            self.maxima[name] = value


@dataclass
class Round:
    traced: bool
    wall_s: float  # the whole round, the benchmark's own checks included, reference slices not
    program_s: float  # the round's time inside program calls
    normalised_s: float = 0.0  # program_s in normalised seconds
    factor: float = 1.0  # mean speed factor of the round's operations


@dataclass
class LoopResult:
    seconds: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)  # normalised, one per successful operation
    raw_latencies: list[float] = field(default_factory=list)  # the same in measured seconds
    failures: list[str] = field(default_factory=list)
    round_log: list[Round] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)  # speed factor of each operation
    # reference slices: group k ran just before operation k, the last group after the loop
    slice_groups: list[list[float]] = field(default_factory=list)
    reference: Reference = IN_PROCESS

    @property
    def slices(self) -> list[float]:
        return [x for group in self.slice_groups for x in group]

    def _near(self, k: int) -> list[float]:
        """The slices just before and just after operation k, widened to REFERENCE_MIN_SLICES."""
        groups = self.slice_groups
        lo, hi = k, k + 1
        near = groups[lo] + groups[hi]
        while len(near) < REFERENCE_MIN_SLICES and (lo > 0 or hi < len(groups) - 1):
            if lo > 0:
                lo -= 1
                near += groups[lo]
            if hi < len(groups) - 1:
                hi += 1
                near += groups[hi]
        return near

    def normalise(self, ops):
        """Fill the normalised figures from ``ops``, one (round index, busy seconds, ok) each."""
        self.factors = [self.reference.factor(self._near(k)) for k in range(len(ops))]
        per_round: list[list[tuple[float, float]]] = [[] for _ in self.round_log]
        for (index, busy, ok), factor in zip(ops, self.factors):
            per_round[index].append((busy, factor))
            if ok:
                self.latencies.append(busy * factor)
                self.raw_latencies.append(busy)
        for entry, pairs in zip(self.round_log, per_round):
            entry.normalised_s = sum(busy * factor for busy, factor in pairs)
            entry.factor = statistics.fmean(factor for _, factor in pairs)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def traced_rounds(self) -> int:
        return sum(1 for r in self.round_log if r.traced)

    def program_share(self) -> float:
        """Share of the rounds' wall time spent inside program calls."""
        return sum(r.program_s for r in self.round_log) / sum(r.wall_s for r in self.round_log)

    def tracing_overhead(self) -> float:
        """Mean traced round time over mean untraced round time, minus one (both normalised)."""
        traced = [r.wall_s * r.factor for r in self.round_log if r.traced]
        plain = [r.wall_s * r.factor for r in self.round_log if not r.traced]
        return statistics.fmean(traced) / statistics.fmean(plain) - 1


def timed_loop(
    workload, rounds, seconds: float, probe: Probe, tracer: Probe | None = None
) -> LoopResult:
    """One client, closed loop: run whole rounds for ``seconds`` normalised seconds.

    Each operation runs under the workload's deadline; an operation that
    raises, runs out of time or fails a check counts as failed and the loop
    goes on.  At least ``workload.min_rounds`` rounds run, so the tail
    percentile always has ten samples beyond it.  The loop's length is
    counted in normalised seconds (round walls scaled by their reference
    slices), so that the number of rounds, and with it the place of every
    percentile among a round's jobs, does not follow the host's speed.
    With a ``tracer``, every second round records spans, and the rounds in
    between measure the same kind of round untraced for the overhead.  A reference slice runs before
    every operation and after the last; operation k (op id k + 1) gets
    ``result.factors[k]``.
    """
    result = LoopResult(reference=getattr(workload, "reference", IN_PROCESS))
    ops: list[tuple[int, float, bool]] = []
    start = time.perf_counter()
    elapsed = 0.0  # normalised seconds
    last_busy = 0.0
    for index, jobs in enumerate(rounds):
        round_probe = tracer if tracer is not None and index % 2 == 1 else probe
        round_start = time.perf_counter()
        program_s = 0.0
        round_slices: list[float] = []
        for job in jobs:
            group = result.reference.group(last_busy)
            result.slice_groups.append(group)
            round_slices += group
            result.attempted += 1
            round_probe.begin(len(ops) + 1)
            ok = False
            try:
                with deadline(workload.deadline_s):
                    workload.run(job, round_probe)
                ok = True
            except Exception as exc:  # an operation's failure must not end the run
                result.failed += 1
                result.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            ops.append((index, round_probe.op_busy, ok))
            program_s += round_probe.op_busy
            last_busy = round_probe.op_busy
        wall = time.perf_counter() - round_start - sum(round_slices)
        result.round_log.append(Round(round_probe is tracer, wall, program_s))
        result.rounds += 1
        elapsed += wall * result.reference.factor(round_slices)
        if result.rounds >= workload.min_rounds and elapsed >= seconds:
            break
    result.slice_groups.append(result.reference.group(last_busy))
    result.seconds = time.perf_counter() - start
    result.normalise(ops)
    return result


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least ten of ``min_samples`` beyond it."""
    for pct in TAIL_LADDER:
        if min_samples - math.ceil(pct / 100 * min_samples) >= 10:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def layer_summary(spans, rounds: int, factors) -> dict[str, dict[str, float]]:
    """Per layer name: normalised busy seconds, calls and errors, each per round.

    ``factors[k]`` is the speed factor of the operation with op id k + 1.
    """
    out: dict[str, dict[str, float]] = {}
    for op_id, name, start, end, ok in spans:
        entry = out.setdefault(name, {"busy_s": 0.0, "calls": 0, "errors": 0})
        entry["busy_s"] += (end - start) * factors[op_id - 1]
        entry["calls"] += 1
        entry["errors"] += 0 if ok else 1
    for entry in out.values():
        for key in entry:
            entry[key] /= rounds
    return out
