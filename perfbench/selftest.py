"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

They check that the generators are seeded, that the output checks catch a
corrupted stream coefficient and a corrupted CLI golden byte, that the
benchmark's own checks stay out of the timings, that each operation is
normalised by the reference slices around it, that the per-operation
deadline fires, and that BENCHMARK.json names exactly the
metrics and workloads this benchmark prints.
"""

import dataclasses
import json
import shutil
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import deltaorder as do  # noqa: E402

import clicold  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    DeadlineExceeded,
    LoopResult,
    Probe,
    Round,
    deadline,
    timed_loop,
)

GENERATED = [*workloads.WORKLOADS.values(), clicold.CliCold]


def make(cls, seed, workdir=None):
    if cls is clicold.CliCold:
        return cls(seed, ROOT / "src", workdir or ROOT / ".perfbench_out" / "selftest")
    return cls(seed)


def run_once(workload, jobs):
    """Run ``jobs`` as a single round; returns the loop result."""
    return timed_loop(workload, [jobs], 0.0, Probe(tracing=False))


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in GENERATED:
            with self.subTest(cls.name):
                self.assertEqual(make(cls, 7).make_rounds(), make(cls, 7).make_rounds())

    def test_other_seed_other_inputs(self):
        for cls in GENERATED:
            with self.subTest(cls.name):
                self.assertNotEqual(make(cls, 7).make_rounds(), make(cls, 8).make_rounds())

    def test_round_structure_does_not_depend_on_the_seed(self):
        for cls in GENERATED:
            with self.subTest(cls.name):
                kinds = [sorted(job.kind for job in jobs) for jobs in make(cls, 1).make_rounds()]
                self.assertEqual(kinds, [sorted(job.kind for job in jobs) for jobs in make(cls, 2).make_rounds()])


class CorruptionTests(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.SolveStream(3)
        self.workload.setup(Probe(tracing=False))
        self.jobs = [
            workloads.Job("cubic pinned", "pinned", ("cubic", 120, workloads.README_PINS)),
            workloads.Job("half basis", "basis", ("half", 120)),
        ]

    def test_clean_streams_pass(self):
        result = run_once(self.workload, self.jobs)
        self.assertEqual(result.failed, 0, result.failures)

    def test_corrupted_coefficient_counts_as_failure(self):
        solve = do.solve_series

        def corrupted(*args, **kwargs):
            out = []
            for sol in solve(*args, **kwargs):
                coeffs = list(sol.coeffs)
                coeffs[57] += Fraction(1, 10**9)
                out.append(dataclasses.replace(sol, coeffs=tuple(coeffs)))
            return out

        do.solve_series = corrupted
        try:
            result = run_once(self.workload, self.jobs)
        finally:
            do.solve_series = solve
        self.assertEqual(result.failed, len(self.jobs))
        self.assertGreater(result.failed / result.attempted, 0)


class GoldenTests(unittest.TestCase):
    def setUp(self):
        self.workdir = ROOT / ".perfbench_out" / "selftest-cli"
        self.workload = clicold.CliCold(1, ROOT / "src", self.workdir)
        self.workload.goldens = clicold.load_goldens()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.job = workloads.Job("analyze", "cli")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_clean_golden_passes(self):
        result = run_once(self.workload, [self.job])
        self.assertEqual(result.failed, 0, result.failures)
        self.assertGreater(self.workload.child_peak_rss_mb, 0)

    def test_corrupted_golden_byte_counts_as_failure(self):
        golden = self.workload.goldens["analyze"]
        at = golden.index('"rho": "1/3"') + len('"rho": "1/')
        self.workload.goldens["analyze"] = golden[:at] + "4" + golden[at + 1 :]
        result = run_once(self.workload, [self.job])
        self.assertEqual(result.failed, 1)
        self.assertIn("differs from the golden", result.failures[0])

    def test_floats_compare_within_tolerance(self):
        golden = '{"a": "1/3", "x": [1.0, 2.5e-3], "n": 4}'
        clicold.compare_with_golden('{"a": "1/3", "x": [1.0000000001, 2.5e-3], "n": 4}', golden)
        with self.assertRaises(clicold.CheckFailed):
            clicold.compare_with_golden('{"a": "1/3", "x": [1.1, 2.5e-3], "n": 4}', golden)
        with self.assertRaises(clicold.CheckFailed):
            clicold.compare_with_golden('{"a": "1/3", "x": [1.0, 2.5e-3], "n": 5}', golden)


class TimingTests(unittest.TestCase):
    def test_checks_stay_out_of_program_time(self):
        class SlowChecker:
            deadline_s = 5.0
            min_rounds = 1

            def run(self, job, probe):
                probe.call("fast", time.sleep, 0.01)
                time.sleep(0.1)  # stands in for an oracle check

        result = run_once(SlowChecker(), [workloads.Job("a", "a"), workloads.Job("b", "b")])
        self.assertEqual(len(result.latencies), 2)
        self.assertLess(max(result.latencies), 0.05)
        self.assertLess(result.round_log[0].program_s, 0.1)
        self.assertGreater(result.round_log[0].wall_s, 0.2)


class NormalisationTests(unittest.TestCase):
    def test_each_operation_is_scaled_by_the_slices_around_it(self):
        nominal = REFERENCE_NOMINAL_S
        result = LoopResult(round_log=[Round(False, 1.0, 0.3)])
        # slices before op 0, between the two, after op 1: the host is twice as slow around op 1
        result.slice_groups = [[nominal] * 4, [2 * nominal] * 2, [2 * nominal] * 2]
        result.normalise([(0, 0.1, True), (0, 0.2, True)])
        self.assertAlmostEqual(result.factors[1], 0.5)
        self.assertEqual(result.raw_latencies, [0.1, 0.2])
        self.assertAlmostEqual(result.latencies[1], 0.1)
        self.assertAlmostEqual(result.round_log[0].normalised_s, 0.1 * result.factors[0] + 0.1)


class DeadlineTests(unittest.TestCase):
    def test_runaway_operation_counts_as_failure(self):
        class Spinner:
            deadline_s = 0.05
            min_rounds = 1

            def run(self, job, probe):
                while True:
                    time.sleep(0.001)

        start = time.perf_counter()
        result = run_once(Spinner(), [workloads.Job("spin", "spin")])
        self.assertEqual(result.failed, 1)
        self.assertIn("DeadlineExceeded", result.failures[0])
        self.assertLess(time.perf_counter() - start, 5)

    def test_deadline_is_cleared_after_the_block(self):
        with deadline(0.05):
            pass
        time.sleep(0.1)  # a pending alarm would raise here
        with self.assertRaises(DeadlineExceeded):
            with deadline(0.02):
                time.sleep(1)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
