"""Self-test of the benchmark: the names it prints against BENCHMARK.json
and the name grammar, and a short sample of every workload against its
pinned digests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec():
    return json.loads(bench.SPEC.read_text())


class BenchmarkJson(unittest.TestCase):
    def test_names_and_units_follow_the_grammar(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
        for w in s["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        e2e = {m["name"]: m for m in spec()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])

    def test_workloads_match_the_runner(self):
        src = (bench.BENCH_DIR / "src" / "plan.rs").read_text()
        listed = re.search(r"WORKLOADS: \[&str; \d+\] = \[([^\]]*)\]", src).group(1)
        runner = re.findall(r'"([^"]+)"', listed)
        self.assertEqual(runner, [w["name"] for w in spec()["workloads"]])


class ShortSamples(unittest.TestCase):
    """Short samples (lengths / 10) through the same paths a run takes."""

    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        cls.spec = spec()

    def check(self, result, metrics):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        units = {m["name"]: m["unit"] for m in metrics}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], units[name])
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_passes_its_output_check(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                prov, result = bench.untraced(self.binary, self.spec, w["name"], 0, 1, short=True)
                self.check(result, self.spec["end_to_end"])
                self.assertGreaterEqual(prov["samples"], bench.MIN_SAMPLES)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        for w in ("stream_timed", "suite_cold"):
            with self.subTest(workload=w):
                _, result = bench.traced(self.binary, self.spec, w, 0, short=True)
                self.check(result, self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
