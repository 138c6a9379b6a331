"""Tests of the benchmark's statistics and output parsing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import stats


def raw_result(**overrides):
    raw = {
        "attempted": 10, "failed": 0,
        "samples": {
            "setup_s": [0.5, 0.7, 0.6], "peak_rss_mb": [1200.0],
            "round_s": [1.0, 1.2, 1.1], "block_ms": [float(i) for i in range(1, 101)],
            "map_ms": [500.0, 520.0], "load_ms": [300.0],
            "respond_ms": [800.0, 900.0, 700.0, 1000.0],
        },
        "layer": {}, "counters": {},
        "checks": {name: True for names in stats.REQUIRED_CHECKS.values()
                   for name in names},
    }
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_interpolates_linearly(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(stats.percentile(range(1, 101), 99), 99.01)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_ignores_input_order(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(stats.BenchError):
            stats.percentile([], 50)
        with self.assertRaises(stats.BenchError):
            stats.median([])


class TailLevelTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_level(39))   # 25% of 39 < 10
        self.assertEqual(stats.tail_level(40), 75.0)
        self.assertEqual(stats.tail_level(100), 90.0)
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(12000), 99.9)
        self.assertEqual(stats.tail_level(10 ** 6), 99.99)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_do_not_spread(self):
        self.assertEqual(stats.spread([3.0] * 5), 0.0)


class ParseDriverOutputTest(unittest.TestCase):
    def test_takes_the_last_line_and_the_trace_file(self):
        raw = raw_result()
        text = "trace_file /x/trace.json\n" + json.dumps(raw) + "\n\n"
        parsed, trace = stats.parse_program_output(text)
        self.assertEqual(parsed, raw)
        self.assertEqual(trace, "/x/trace.json")

    def test_untraced_output_has_no_trace_file(self):
        _, trace = stats.parse_program_output(json.dumps(raw_result()))
        self.assertIsNone(trace)

    def test_rejects_missing_or_malformed_results(self):
        for text in ("", "not json", json.dumps({"attempted": 1})):
            with self.assertRaises(stats.BenchError):
                stats.parse_program_output(text)


class EndToEndTest(unittest.TestCase):
    def test_p99_of_a_series(self):
        self.assertAlmostEqual(stats.reduce(raw_result()["samples"]["block_ms"],
                                            "p99"), 99.01)

    def test_every_metric_with_its_unit(self):
        metrics = stats.end_to_end_metrics(raw_result())
        self.assertEqual(set(metrics), set(stats.END_TO_END))
        self.assertEqual(metrics["setup_s"], {"value": 0.6, "unit": "s"})
        self.assertEqual(metrics["peak_rss_mb"]["value"], 1200.0)
        self.assertEqual(metrics["round_s"]["value"], 1.1)
        self.assertEqual(metrics["map_ms"]["value"], 510.0)

    def test_prefixed_series_are_not_end_to_end(self):
        raw = raw_result()
        raw["samples"]["traced.round_s"] = [9.0]
        raw["samples"]["side.map_ms"] = [9000.0]
        metrics = stats.end_to_end_metrics(raw)
        self.assertEqual(metrics["round_s"]["value"], 1.1)
        self.assertEqual(metrics["map_ms"]["value"], 510.0)

    def test_a_missing_series_is_an_error(self):
        raw = raw_result()
        del raw["samples"]["round_s"]
        with self.assertRaises(stats.BenchError):
            stats.end_to_end_metrics(raw)


def span(name, ts, dur):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 0}


class SpanTest(unittest.TestCase):
    def test_parses_complete_events_only(self):
        trace = {"traceEvents": [span("a", 1, 2), {"name": "m", "ph": "M"}]}
        self.assertEqual(stats.parse_spans(trace), [("a", 1.0, 2.0)])
        with self.assertRaises(stats.BenchError):
            stats.parse_spans({})

    def test_busy_share_counts_handlers_inside_windows(self):
        spans = stats.parse_spans({"traceEvents": [
            span("serve.window", 0, 1000),
            span("service.handle_block", 100, 50),
            span("service.handle_map", 400, 150),
            span("service.handle_map", 2000, 500),  # outside any window
            span("client.block", 90, 80),
        ]})
        self.assertAlmostEqual(stats.busy_share(spans), 0.2)

    def test_per_layer_metrics(self):
        events = [span(name, 0, 2000) for name, _ in stats.SPAN_METRICS.values()
                  if name != "service.handle_block"]
        events += [span("serve.window", 0, 10000),
                   span("service.handle_block", 10, 3),
                   span("client.block", 5, 10)]
        raw = raw_result(
            layer={name: [1.0, 3.0] for name in stats.SAMPLED_METRICS},
            counters={name: 5.0 for name in stats.COUNTER_METRICS})
        raw["samples"]["untraced.round_s"] = [1.0, 1.0]
        raw["samples"]["traced.round_s"] = [1.01, 1.01]
        metrics = stats.per_layer_metrics(raw, stats.parse_spans(
            {"traceEvents": events}), "campaign")
        expected = (set(stats.SPAN_METRICS) | set(stats.SAMPLED_METRICS) |
                    set(stats.COUNTER_METRICS) | set(stats.DERIVED_METRICS))
        self.assertEqual(set(metrics), expected)
        self.assertEqual(metrics["core.round_ms"], {"value": 2.0, "unit": "ms"})
        self.assertEqual(metrics["service.handle_block_us"]["value"], 3.0)
        self.assertEqual(metrics["net.transport_us"]["value"], 7.0)
        self.assertEqual(metrics["core.kept_ratio"]["value"], 2.0)
        self.assertAlmostEqual(metrics["trace.overhead_pct"]["value"], 1.0)


class CorrectnessTest(unittest.TestCase):
    def test_all_checks_and_no_failures(self):
        for workload in stats.WORKLOADS:
            self.assertEqual(stats.correctness(raw_result(), workload),
                             (True, []))

    def test_a_failed_or_missing_check_is_incorrect(self):
        raw = raw_result()
        raw["checks"]["serve.map_matches_csv"] = False
        del raw["checks"]["serve.journal"]
        correct, failing = stats.correctness(raw, "serve")
        self.assertFalse(correct)
        self.assertEqual(failing, ["serve.map_matches_csv",
                                   "serve.journal (missing)"])

    def test_each_workload_requires_its_own_checks(self):
        campaign_only = {name: True
                         for name in stats.REQUIRED_CHECKS["campaign"]}
        raw = raw_result(checks=campaign_only)
        self.assertTrue(stats.correctness(raw, "campaign")[0])
        correct, failing = stats.correctness(raw, "serve")
        self.assertFalse(correct)
        self.assertIn("serve.map_matches_csv (missing)", failing)

    def test_any_failed_check_is_incorrect_even_if_not_required(self):
        raw = raw_result()
        raw["checks"]["serve.no_failed_rounds"] = False
        self.assertFalse(stats.correctness(raw, "campaign")[0])

    def test_failed_operations_are_incorrect(self):
        self.assertFalse(stats.correctness(raw_result(failed=1), "campaign")[0])

    def test_result_line_has_exactly_four_keys(self):
        line = json.loads(stats.result_line(
            raw_result(), {"setup_s": {"value": 0.6, "unit": "s"}}, "serve"))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics stats.py produces."""

    @classmethod
    def setUpClass(cls):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        cls.doc = json.loads(path.read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]],
                         list(stats.WORKLOADS))
        for w in self.doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_end_to_end_metrics_and_bounds(self):
        declared = {m["name"]: m["unit"] for m in self.doc["end_to_end"]}
        self.assertEqual(declared, {name: unit for name, (_, _, unit)
                                    in stats.END_TO_END.items()})
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_metrics(self):
        declared = {m["name"]: m["unit"] for m in self.doc["per_layer"]}
        expected = {name: unit for name, (_, unit)
                    in stats.SPAN_METRICS.items()}
        expected.update(stats.SAMPLED_METRICS)
        expected.update(stats.COUNTER_METRICS)
        expected.update(stats.DERIVED_METRICS)
        self.assertEqual(declared, expected)

    def test_names_and_units_are_well_formed(self):
        metrics = self.doc["end_to_end"] + self.doc["per_layer"]
        names = [m["name"] for m in metrics] + [
            w["name"] for w in self.doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in metrics:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
