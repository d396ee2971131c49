"""Self-tests for the benchmark.

    python3 -m unittest discover -s perfbench/tests

Checks BENCHMARK.json and the result schema run.py enforces, and runs the
harness's own self-test (percentile rule, open-loop timing against a
stalled fake server, span self time, capacity interpolation), building
the harness first when needed.
"""

import copy
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(ROOT)

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        for workload in self.spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)

    def test_metric_names_match_pattern(self):
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["name"], NAME_PATTERN)
            self.assertRegex(metric["name"], run.NAME_RE)

    def test_spec_is_valid(self):
        self.assertEqual(run.validate_spec(self.spec), [])

    def test_spec_validation_catches_mistakes(self):
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"][0]["name"] = "bad name"
        self.assertTrue(run.validate_spec(spec))
        spec = copy.deepcopy(self.spec)
        for metric in spec["end_to_end"]:
            if metric["name"] == "setup_s":
                metric["bound"] = 0.01
        self.assertTrue(run.validate_spec(spec))


class ResultSchemaTest(unittest.TestCase):
    def setUp(self):
        self.expected = {"setup_s": "s", "latency_ms": "ms"}
        self.good = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "setup_s": {"value": 0.5, "unit": "s"},
            "latency_ms": {"value": 1.25, "unit": "ms"}}}

    def problems(self, mutate):
        result = copy.deepcopy(self.good)
        mutate(result)
        return run.validate_result(result, self.expected)

    def test_good_result(self):
        self.assertEqual(run.validate_result(self.good, self.expected), [])

    def test_rejects_extra_top_level_key(self):
        self.assertTrue(self.problems(lambda r: r.update(extra=1)))

    def test_rejects_missing_or_unknown_metric(self):
        self.assertTrue(self.problems(lambda r: r["metrics"].pop("setup_s")))
        self.assertTrue(self.problems(
            lambda r: r["metrics"].update(other={"value": 1.0, "unit": "s"})))

    def test_rejects_bad_values(self):
        self.assertTrue(self.problems(
            lambda r: r["metrics"]["setup_s"].update(value=float("nan"))))
        self.assertTrue(self.problems(lambda r: r["metrics"]["setup_s"].update(value=True)))
        self.assertTrue(self.problems(lambda r: r["metrics"]["setup_s"].update(unit="ms")))
        self.assertTrue(self.problems(lambda r: r["metrics"]["setup_s"].update(extra=1)))

    def test_rejects_bad_counts(self):
        self.assertTrue(self.problems(lambda r: r.update(attempted=0)))
        self.assertTrue(self.problems(lambda r: r.update(failed=1.5)))
        self.assertTrue(self.problems(lambda r: r.update(correct="yes")))


class HarnessSelfTest(unittest.TestCase):
    def test_harness_selftest(self):
        source = run.source_provenance(ROOT)
        harness, _ = run.build(ROOT, source["source_sha256"])
        run_dir = os.path.relpath(os.path.join(run.build_dir(ROOT), "selftest"), ROOT)
        done = subprocess.run([harness, "--selftest", "--run-dir", run_dir], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)


if __name__ == "__main__":
    unittest.main()
