"""Run one deltaorder benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analyze-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; the program under test is always the ``src/deltaorder``
of the checkout that holds this file.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds (their time difference is the tracing
overhead), then times the scaling ladders, and writes its spans to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

``setup_s`` is the median of SETUP_REPEATS cold set-ups: the run's own and
further ones in fresh interpreters (``--setup-only``), so caches that
deltaorder keeps per process never make a set-up look faster.

Every time is in normalised seconds (see harness.py): measured seconds
scaled by a reference computation timed next to them, so that the host's
changing speed does not show as a change of the program.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from harness import (
    Probe,
    deadline,
    layer_summary,
    normalised_call,
    percentile,
    tail_percentile,
    timed_loop,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
LADDER_DEADLINE_S = 150.0

WORKLOAD_NAMES = ("analyze-sweep", "solve-stream", "construct-roundtrip", "eval-growth", "cli-cold")

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_LAYERS = (
    "parsing.parse_equation",
    "equations.normalize_to_delta",
    "newton.analyze",
    "recurrences.derive_recurrence",
    "recurrences.shifted_recurrence",
    "recurrences.adams_polygon",
    "recurrences.sub_one_branches",
    "recurrences.indicial_exponents",
    "series.solve_pinned",
    "series.solve_basis",
    "series.verify_recurrence",
    "series.estimate_chi",
    "equations.apply_operator",
    "construction.construct_equation",
    "construction.roundtrip_check",
    "evaluation.eval_series",
    "evaluation.max_modulus",
    "evaluation.empirical_order",
)
COUNTS = (
    ("recurrences.window_terms", "count"),
    ("series.coeffs_generated", "count"),
    ("series.free_params", "count"),
    ("evaluation.terms_summed", "count"),
    ("cli.stdout_bytes", "bytes"),
)
EXPONENTS = (
    "series.solve_pinned.n_exponent",
    "series.verify_recurrence.n_exponent",
    "recurrences.derive_recurrence.d_exponent",
    "recurrences.indicial_exponents.m_exponent",
)
CLI_PHASES = ("cli.interpreter_s", "cli.import_s", "cli.command_s")

PER_LAYER = (
    [(f"{layer}.{field}", unit) for layer in SPAN_LAYERS
     for field, unit in (("busy_s", "s"), ("calls", "count"), ("errors", "count"))]
    + list(COUNTS)
    + [("series.coeff_bits_max", "bits"), ("construction.roundtrip.stages_ok_ratio", "ratio")]
    + [(name, "exponent") for name in EXPONENTS]
    + [(name, "s") for name in CLI_PHASES]
    + [("trace.overhead_ratio", "ratio")]
)


NPROC = len(os.sched_getaffinity(0))  # before cli-cold pins itself to one CPU


def parse_args(argv):
    parser = argparse.ArgumentParser(description="deltaorder benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print its seconds and exit")
    return parser.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """The workload set up once: import deltaorder, generate inputs, prepare, warm up."""
    import deltaorder  # noqa: F401

    workload = make_workload(name, seed, workdir)
    workload.setup(Probe(tracing=False))
    return workload


def timed_setup(name: str, seed: int, workdir: Path):
    """The set-up workload and its normalised seconds.

    Call it before deltaorder is imported in this process, so the import is
    part of the time.
    """
    return normalised_call(set_up, name, seed, workdir)


def setup_in_fresh_process(args) -> float:
    """Normalised seconds of one set-up in a new interpreter."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=170)
    return float(done.stdout.split()[-1])


def make_workload(name: str, seed: int, workdir: Path):
    from clicold import CliCold
    from workloads import WORKLOADS

    if name == CliCold.name:
        return CliCold(seed, SRC, workdir)
    return WORKLOADS[name](seed)


def environment(seed: int) -> dict:
    import mpmath

    import deltaorder

    precision = getattr(deltaorder, "working_precision", None)
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__ if numpy else None,
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "precision_bits": precision() if precision else None,
        "DELTAORDER_PRECISION": os.environ.get("DELTAORDER_PRECISION", "unset"),
        "seed": seed,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(workload, loop, setups) -> dict:
    latencies = loop.latencies or [0.0]
    median_round = statistics.median(r.normalised_s for r in loop.round_log)
    child_peak = getattr(workload, "child_peak_rss_mb", None)
    return {
        "throughput_ops_s": loop.succeeded / loop.rounds / median_round,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, workload.tail_pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child_peak if child_peak is not None else peak_rss_mb(),
    }


def per_layer(workload, loop, probe, exponents) -> dict:
    rounds = loop.traced_rounds
    layers = layer_summary(probe.spans, rounds, loop.factors)
    out = {}
    for layer in SPAN_LAYERS:
        entry = layers.get(layer, {"busy_s": 0.0, "calls": 0, "errors": 0})
        for field in ("busy_s", "calls", "errors"):
            out[f"{layer}.{field}"] = entry[field]
    for name, _ in COUNTS:
        out[name] = probe.counts.get(name, 0) / rounds
    out["series.coeff_bits_max"] = probe.maxima.get("series.coeff_bits_max", 0)
    stages = probe.counts.get("construction.roundtrip.stages", 0)
    out["construction.roundtrip.stages_ok_ratio"] = (
        probe.counts["construction.roundtrip.stages_ok"] / stages if stages else 0.0
    )
    for name in EXPONENTS:
        out[name] = exponents[name][0] if name in exponents else 0.0
    samples = getattr(workload, "samples", {})
    for name in CLI_PHASES:
        phase = samples.get(name.removeprefix("cli."), [])
        values = [seconds * loop.factors[op_id - 1] for op_id, seconds in phase]
        out[name] = statistics.median(values) if values else 0.0
    out["trace.overhead_ratio"] = loop.tracing_overhead()
    return out


def write_spans(path: Path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for op_id, name, start, end, ok in spans:
            fh.write(json.dumps({"op": op_id, "name": name, "start": start, "end": end, "ok": ok}))
            fh.write("\n")


def report_loop(loop):
    print(
        f"# timed loop: rounds={loop.rounds} (traced {loop.traced_rounds}) operations={loop.attempted} "
        f"failed={loop.failed} wall={loop.seconds:.3f} s; program share of the round walls "
        f"{loop.program_share():.3f}; round program s normalised/measured, wall "
        + " ".join(
            f"{r.normalised_s:.3f}/{r.program_s:.3f},{r.wall_s:.3f}{'t' if r.traced else ''}"
            for r in loop.round_log
        )
    )
    raw_p50 = statistics.median(loop.raw_latencies) if loop.raw_latencies else 0.0
    print(
        f"# host speed: reference slice median {statistics.median(loop.slices) * 1e3:.3f} ms "
        f"(nominal {loop.reference.nominal_s * 1e3:g} ms), speed factors "
        f"{min(loop.factors):.3f}..{max(loop.factors):.3f}; measured latency p50 {raw_p50:.6g} s"
    )
    for line in loop.failures[:10]:
        print(f"# FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deltaorder" / "__init__.py").is_file():
        print(f"perfbench: no deltaorder package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DELTAORDER_PRECISION", None)  # the benchmark runs at the default precision
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        try:
            print(timed_setup(args.workload, args.seed, workdir)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    compileall.compile_dir(str(SRC / "deltaorder"), quiet=1)
    try:
        workload, own_setup_s = timed_setup(args.workload, args.seed, workdir)
        import deltaorder

        if Path(deltaorder.__file__).resolve().parent != (SRC / "deltaorder").resolve():
            print(f"perfbench: imported deltaorder from {deltaorder.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from workloads import scaling_exponents

        round_size = len(workload.rounds[0])
        workload.tail_pct = tail_percentile(workload.min_rounds * round_size)
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(f"# environment {json.dumps(environment(args.seed))}")
        print(f"# closed loop, 1 client; {round_size} operations per round, at least {workload.min_rounds} rounds")

        if not args.trace:
            setups = [own_setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
            loop = timed_loop(workload, itertools.cycle(workload.rounds), args.seconds, Probe(False))
            report_loop(loop)
            metrics, units = end_to_end(workload, loop, setups), dict(END_TO_END)
            notes = [
                f"error_ratio {loop.failed / loop.attempted:.6g} ratio ({loop.failed} of {loop.attempted})",
                f"# latency_tail_s is p{workload.tail_pct:g} of {len(loop.latencies)} samples, "
                f"{sum(1 for x in loop.latencies if x > metrics['latency_tail_s'])} of them beyond it",
                f"# throughput_ops_s and the latencies count time inside program calls only, "
                f"{loop.program_share():.1%} of the round walls; the rest is the benchmark's own checks",
                f"# setup_s is the median of {', '.join(f'{s:.4f}' for s in setups)} (each a cold set-up)",
                "# every time above is in normalised seconds; measured seconds are on the host-speed line",
            ]
            attempted, failed = loop.attempted, loop.failed
        else:
            probe = Probe(tracing=True)
            loop = timed_loop(
                workload, itertools.cycle(workload.rounds), args.seconds, Probe(False), tracer=probe
            )
            report_loop(loop)
            attempted, failed = loop.attempted + bool(workload.ladders), loop.failed
            exponents = {}
            try:
                with deadline(LADDER_DEADLINE_S):
                    exponents = scaling_exponents(workload.ladders)
            except Exception as exc:  # a failed ladder is reported, not fatal
                failed += 1
                print(f"# FAILED scaling ladders: {type(exc).__name__}: {exc}", file=sys.stderr)
            for name, (exponent, points) in exponents.items():
                listed = ", ".join(f"{size}:{seconds:.4f}" for size, seconds in points)
                print(f"# {name} = {exponent:.3f} fitted on size:seconds {listed}")
            metrics, units = per_layer(workload, loop, probe, exponents), dict(PER_LAYER)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(spans_file, probe.spans)
            notes = [
                "# per-layer values are per traced round unless a max, median, ratio or exponent",
                "# layer wait time: none (one client, no queue)",
                f"# {len(probe.spans)} spans written to {spans_file.relative_to(ROOT)}",
            ]
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        print("\n".join(notes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
