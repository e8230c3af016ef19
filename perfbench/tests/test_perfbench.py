"""Self-test of the benchmark at mini scale.

    python3 -m unittest discover -s perfbench/tests

Builds `grca` and `grca_perfbench` on first use (a few minutes), then runs
every workload end to end and traced on a two-day toy corpus, and checks
that a perturbed reference fails the run.
"""

import collections
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

SEED = 5
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "mini"],
        capture_output=True, text=True, timeout=900)
    return proc, proc.stdout.strip().splitlines()


class ReportParsingTest(unittest.TestCase):
    REPORT = """root cause breakdown
Root Cause           Count  Percentage (%)
------------------------------------------
Link congestion      242    40.33
Interface flap       91     15.17
Unknown              117    19.50

mean diagnosis time: 1.5 ms/symptom over 450 symptoms

accuracy vs ground truth: 99.1667% (445/449 matched diagnoses)
"""

    def test_parses_rows_symptoms_and_score(self):
        report = harness.parse_report(self.REPORT)
        self.assertEqual(report.breakdown, {"Link congestion": 242,
                                            "Interface flap": 91, "Unknown": 117})
        self.assertEqual((report.symptoms, report.correct, report.matched),
                         (450, 445, 449))

    def test_truncated_output_is_rejected(self):
        self.assertIsNone(harness.parse_report(self.REPORT.split("\nmean")[0]))

    def test_breakdown_errors_count_changed_and_missing_verdicts(self):
        ref = harness.parse_report(self.REPORT)
        changed = harness.Report(dict(ref.breakdown, **{"Unknown": 116,
                                                        "Interface flap": 92}),
                                 450, 445, 449)
        missing = harness.Report(dict(ref.breakdown, Unknown=115), 448, 445, 449)
        self.assertEqual(harness.breakdown_errors(ref, ref), 0)
        self.assertEqual(harness.breakdown_errors(ref, changed), 1)
        self.assertEqual(harness.breakdown_errors(ref, missing), 2)

    def test_verdict_errors_match_on_key(self):
        def verdicts(pairs):
            out = collections.defaultdict(collections.Counter)
            for key, primary in pairs:
                out[key][primary] += 1
            return out
        ref = verdicts([("a@1", "x"), ("b@2", "y"), ("c@3", "z")])
        self.assertEqual(harness.verdict_errors(ref, ref), 0)
        self.assertEqual(harness.verdict_errors(
            ref, verdicts([("a@1", "x"), ("b@2", "q"), ("d@4", "z")])), 3)


class MiniScaleTest(unittest.TestCase):
    """Every workload, end to end and traced, at mini scale."""

    def check_result(self, workload, trace):
        proc, lines = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines[-20:]))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in group})
        for m in group:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertTrue(any(line.startswith("stamp: ") for line in lines))
        return result["metrics"]

    def test_end_to_end(self):
        for workload in harness.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0)
                self.assertEqual(metrics["verdict_match_share"]["value"], 1.0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for workload in harness.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1)
                self.assertGreater(metrics["trace.coverage"]["value"], 0.5)
                stream = workload == "stream-bgp"
                self.assertEqual(metrics["apps.stream_advance_s"]["value"] > 0, stream)
                self.assertEqual(metrics["collector.normalize_s"]["value"] > 0, not stream)
                self.assertEqual(metrics["storage.open_s"]["value"] > 0,
                                 workload == "store-innet")

    def test_bare_directory_fails_without_result(self):
        # Only BENCHMARK.json and perfbench/: no sources to build.
        harness.WORK_ROOT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=harness.WORK_ROOT) as tmp:
            shutil.copy(harness.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "batch-bgp",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class PerturbedReferenceTest(unittest.TestCase):
    """A reference that disagrees with the program must fail the run."""

    @classmethod
    def setUpClass(cls):
        cls.build = harness.build()

    def set_up(self, workload):
        return harness.set_up(self.build, harness.WORKLOADS[workload], SEED, "mini",
                              harness.WORK_ROOT / "selftest" / workload)

    def test_changed_breakdown_row_fails_batch_run(self):
        setup = self.set_up("batch-bgp")
        rows = sorted(setup.report.breakdown)
        self.assertGreaterEqual(len(rows), 2)
        setup.report.breakdown[rows[0]] += 1
        setup.report.breakdown[rows[1]] -= 1
        run = harness.run_diagnose(self.build, setup, 2,
                                   harness.WORK_ROOT / "selftest" / "run")
        self.assertEqual(run.errors, 1)
        self.assertFalse(run.ok)

    def test_changed_verdict_fails_stream_run(self):
        setup = self.set_up("stream-bgp")
        key = sorted(setup.verdicts)[0]
        setup.verdicts[key] = collections.Counter({"perturbed-cause": 1})
        run = harness.run_driver(self.build, setup, 2,
                                 harness.WORK_ROOT / "selftest" / "run", False)
        self.assertGreater(run.errors, 0)
        self.assertFalse(run.ok)


if __name__ == "__main__":
    unittest.main()
