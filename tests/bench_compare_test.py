#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py gate parsing.

The scale/serve gates are the only thing standing between a cache-thrashing
probe-path regression and a green CI run, so their parsing — absolute
counter bounds, same-run ratio gates, counter extraction from
google-benchmark JSON — gets pinned here. Run directly or via ctest
(label: unit).
"""
import glob
import importlib.util
import json
import os
import re
import sys
import tempfile
import unittest

_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools", "bench_compare.py")
_REPO = os.path.join(os.path.dirname(_TOOL), os.pardir)
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def result(name, real_time=1.0, time_unit="ms", **counters):
    """One google-benchmark result object."""
    obj = {"name": name, "run_name": name, "run_type": "iteration",
           "real_time": real_time, "time_unit": time_unit}
    obj.update(counters)
    return obj


def load(*benchmarks):
    """Round-trips benchmark objects through load_results via a temp file."""
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump({"benchmarks": list(benchmarks)}, f)
        path = f.name
    try:
        return bench_compare.load_results([path])
    finally:
        os.unlink(path)


class LoadResultsTest(unittest.TestCase):
    def test_user_counters_are_separated_from_known_fields(self):
        current = load(result("BM_ScaleProbeRound/6400000", 32000.0, "ms",
                              blocks_per_sec=200000.0,
                              table_bytes_per_as=48.5,
                              iterations=3))
        entry = current["BM_ScaleProbeRound/6400000"]
        self.assertEqual(entry["counters"],
                         {"blocks_per_sec": 200000.0,
                          "table_bytes_per_as": 48.5})
        self.assertNotIn("iterations", entry["counters"])

    def test_median_aggregate_wins_over_other_aggregates(self):
        mean = result("BM_X", 9.0)
        mean.update(run_type="aggregate", aggregate_name="mean",
                    name="BM_X_mean")
        median = result("BM_X", 5.0)
        median.update(run_type="aggregate", aggregate_name="median",
                      name="BM_X_median")
        current = load(mean, median)
        self.assertEqual(current["BM_X"]["real_time"], 5.0)

    def test_counter_of_handles_missing_bench_and_counter(self):
        current = load(result("BM_A", blocks_per_sec=7.0))
        self.assertEqual(
            bench_compare.counter_of(current, "BM_A", "blocks_per_sec"), 7.0)
        self.assertIsNone(
            bench_compare.counter_of(current, "BM_A", "nope"))
        self.assertIsNone(
            bench_compare.counter_of(current, "BM_missing", "blocks_per_sec"))


class ScaleGateTest(unittest.TestCase):
    def setUp(self):
        self.current = load(
            result("BM_ScaleProbeRound/120000", blocks_per_sec=500000.0),
            result("BM_ScaleProbeRound/6400000", blocks_per_sec=320000.0,
                   table_bytes_per_as=48.0))

    def test_ratio_gate_passes_and_fails_on_min_ratio(self):
        gate = {"numerator": "BM_ScaleProbeRound/6400000",
                "denominator": "BM_ScaleProbeRound/120000",
                "counter": "blocks_per_sec", "min_ratio": 0.6}
        rows = bench_compare.scale_gate_rows(self.current, {"probe": gate})
        self.assertEqual(len(rows), 1)
        name, desc, ok = rows[0]
        self.assertEqual(name, "probe")
        self.assertTrue(ok)  # 320000/500000 = 0.64 >= 0.6
        self.assertIn("0.64", desc)

        gate["min_ratio"] = 0.7
        [(_, _, ok)] = bench_compare.scale_gate_rows(self.current,
                                                     {"probe": gate})
        self.assertFalse(ok)

    def test_absolute_gate_min_and_max_bounds(self):
        gates = {
            "floor": {"bench": "BM_ScaleProbeRound/6400000",
                      "counter": "blocks_per_sec", "min_value": 300000},
            "ceiling": {"bench": "BM_ScaleProbeRound/6400000",
                        "counter": "table_bytes_per_as", "max_value": 64},
        }
        rows = {name: ok for name, _, ok
                in bench_compare.scale_gate_rows(self.current, gates)}
        self.assertTrue(rows["floor"])    # 320000 >= 300000
        self.assertTrue(rows["ceiling"])  # 48 <= 64

        gates["floor"]["min_value"] = 400000
        gates["ceiling"]["max_value"] = 32
        rows = {name: ok for name, _, ok
                in bench_compare.scale_gate_rows(self.current, gates)}
        self.assertFalse(rows["floor"])
        self.assertFalse(rows["ceiling"])

    def test_gate_skipped_when_bench_absent_or_denominator_zero(self):
        gates = {
            "absent": {"bench": "BM_NotRun", "counter": "blocks_per_sec",
                       "min_value": 1},
            "zero": {"numerator": "BM_ScaleProbeRound/6400000",
                     "denominator": "BM_Zero", "counter": "blocks_per_sec",
                     "min_ratio": 0.5},
        }
        current = dict(self.current)
        current["BM_Zero"] = {"real_time": 1.0, "time_unit": "ms",
                              "counters": {"blocks_per_sec": 0}}
        self.assertEqual(bench_compare.scale_gate_rows(current, gates), [])

    def test_repo_baseline_scale_gates_parse(self):
        # The committed baseline's own gates must stay in a shape this
        # script understands (a typo here silently disables the gate).
        with open(os.path.join(_REPO, "bench", "baseline.json")) as f:
            doc = json.load(f)
        self.assertIn("scale_gates", doc)
        for name, gate in doc["scale_gates"].items():
            self.assertIn("counter", gate, name)
            if "bench" in gate:
                self.assertTrue("min_value" in gate or "max_value" in gate,
                                name)
            else:
                for key in ("numerator", "denominator", "min_ratio"):
                    self.assertIn(key, gate, name)


class CacheSpeedupTest(unittest.TestCase):
    def test_slow_fast_ratio_with_unit_conversion(self):
        current = load(result("BM_Slow", 2.0, "ms"),
                       result("BM_Fast", 500.0, "us"))
        rows = bench_compare.cache_speedups(
            current, {"gate": {"slow": "BM_Slow", "fast": "BM_Fast",
                               "min_ratio": 3.0}})
        [(name, ratio, need)] = rows
        self.assertAlmostEqual(ratio, 4.0)  # 2 ms / 500 us
        self.assertEqual(need, 3.0)

    def test_gate_skipped_when_either_side_missing(self):
        current = load(result("BM_Slow", 2.0, "ms"))
        self.assertEqual(
            bench_compare.cache_speedups(
                current, {"gate": {"slow": "BM_Slow", "fast": "BM_Gone",
                                   "min_ratio": 1.0}}),
            [])


class BaselineNamesTest(unittest.TestCase):
    def test_every_baseline_name_is_a_registered_benchmark(self):
        # A gate whose benchmark is missing from a run is skipped (see
        # test_gate_skipped_when_either_side_missing), so deleting a bench
        # would leave its gate silently dead. Every name the committed
        # baseline refers to, args stripped, must still be registered by a
        # BENCHMARK(...) in bench/*.cpp.
        registered = set()
        for path in glob.glob(os.path.join(_REPO, "bench", "*.cpp")):
            with open(path) as f:
                registered.update(
                    re.findall(r"\bBENCHMARK\(\s*(\w+)\s*\)", f.read()))
        with open(os.path.join(_REPO, "bench", "baseline.json")) as f:
            doc = json.load(f)
        names = set(doc["benchmarks"])
        for section, gates in doc.items():
            if not section.endswith("_gates"):
                continue
            for gate in gates.values():
                for key in ("fast", "slow", "bench", "numerator",
                            "denominator"):
                    if key in gate:
                        names.add(gate[key])
        self.assertGreater(len(names), 0)
        missing = sorted(name for name in names
                         if name.split("/")[0] not in registered)
        self.assertEqual(missing, [])


if __name__ == "__main__":
    unittest.main()
