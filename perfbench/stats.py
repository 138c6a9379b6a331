"""Statistics and output parsing for the end-to-end benchmark.

Pure functions only, so that tests (test_stats.py) can pin them: the
measuring program (vp_perfbench) prints raw samples, and this module turns
them into the metrics the benchmark reports.
"""

import json
import statistics

WORKLOADS = ("campaign", "serve")

# Tail levels tried, highest first, when reporting a timing's tail.
TAIL_LEVELS = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is only reported with at least this many samples
# beyond it.
TAIL_MIN_BEYOND = 10

# End-to-end metrics: name -> (raw sample series, reduction, unit). Each
# workload fills every series from its own measured window (README.md says
# what round_s and map_ms time on each). The /block, /load and respond()
# timings are printed in every run's summary but are not end-to-end
# metrics: across ten seeds they spread wider than any bound allows (see
# README.md, "Steadiness").
END_TO_END = {
    "setup_s": ("setup_s", "median", "s"),
    "peak_rss_mb": ("peak_rss_mb", "max", "MB"),
    "round_s": ("round_s", "median", "s"),
    "map_ms": ("map_ms", "median", "ms"),
}

# Per-layer metrics read off spans: name -> (span name, unit).
SPAN_METRICS = {
    "topology.generate_ms": ("topology.generate", "ms"),
    "hitlist.build_ms": ("hitlist.build", "ms"),
    "bgp.route_full_ms": ("bgp.route_full", "ms"),
    "core.round_ms": ("core.round", "ms"),
    "core.encode_round_ms": ("core.encode_round", "ms"),
    "core.journal_append_ms": ("core.journal_append", "ms"),
    "core.csv_write_ms": ("core.csv_write", "ms"),
    "service.handle_block_us": ("service.handle_block", "us"),
    "service.handle_map_ms": ("service.handle_map", "ms"),
    "service.handle_load_ms": ("service.handle_load", "ms"),
    "bgp.delta_apply_ms": ("bgp.delta_apply", "ms"),
    "analysis.predict_load_ms": ("analysis.predict_load", "ms"),
    "agility.offered_load_ms": ("agility.offered_load", "ms"),
    "agility.evaluate_ms": ("agility.evaluate", "ms"),
}

# Per-layer metrics vp_perfbench samples itself (median reported).
SAMPLED_METRICS = {
    "core.probe_phase_ms": "ms",
    "core.tail_ms": "ms",
    "core.replies_raw": "count",
    "core.kept_ratio": "ratio",
    "core.dropped.duplicates": "count",
    "core.dropped.unsolicited": "count",
    "core.dropped.late": "count",
    "core.dropped.wrong_id": "count",
    "serve.kept_ratio": "ratio",
    "sim.probes_sent": "count",
    "sim.retries": "count",
    "sim.fault.probes_lost": "count",
    "sim.fault.replies_lost": "count",
    "sim.fault.rate_limited": "count",
    "sim.fault.outage_drops": "count",
    "sim.fault.withdrawn": "count",
    "sim.fault.diverted": "count",
    "sim.fault.delayed": "count",
    "sim.fault.recovered": "count",
    "bgp.recomputed_ases": "count",
    "bgp.changed_ases": "count",
}

# Per-layer metrics vp_perfbench counts: name -> unit.
COUNTER_METRICS = {
    "service.map_bytes": "bytes",
    "agility.configs_evaluated": "count",
    "trace.spans": "count",
}

# Per-layer metrics derived from several sources: name -> unit.
DERIVED_METRICS = {
    "net.transport_us": "us",
    "service.handler_busy_share": "ratio",
    "trace.overhead_pct": "%",
}

# The end-to-end sample series whose traced/untraced difference is the
# tracing overhead, per workload.
OVERHEAD_SERIES = {
    "campaign": ("round_s", "median"),
    "serve": ("map_ms", "median"),
}

HANDLER_SPANS = ("service.handle_block", "service.handle_map",
                 "service.handle_load")

# Correctness checks a run of each workload must report, all true (a
# traced run also reports the other job's checks, from its side pass).
REQUIRED_CHECKS = {
    "campaign": (
        "campaign.all_rounds_returned",
        "campaign.journal_appends",
        "campaign.kept_is_mapped",
        "campaign.mapped_blocks_were_probed",
        "campaign.raw_is_kept_plus_dropped",
        "whatif.best_matches_reference",
    ),
    "serve": (
        "serve.journal",
        "serve.map_matches_csv",
        "serve.no_failed_rounds",
        "whatif.best_matches_reference",
    ),
}


class BenchError(Exception):
    """The run cannot produce a result."""


def median(values):
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_level(count):
    """The highest tail level with at least TAIL_MIN_BEYOND samples beyond
    it, or None when there are too few samples for any."""
    for level in TAIL_LEVELS:
        # (100 - level) keeps 100 samples at p90 from reading as 9.999...
        if count * (100.0 - level) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return level
    return None


def spread(values):
    """Interquartile range as a share of the median, computed as the
    steadiness check in README.md does (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def reduce(values, how):
    if how == "median":
        return median(values)
    if how == "max":
        if not values:
            raise BenchError("max of no samples")
        return max(values)
    if how.startswith("p"):
        return percentile(values, float(how[1:]))
    raise ValueError(how)


def parse_program_output(text):
    """Splits vp_perfbench's stdout into (raw result, trace file path).

    The raw result is the JSON object on the last non-empty line; a
    'trace_file <path>' line names the span file of a traced run."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("vp_perfbench printed nothing")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"vp_perfbench's last line is not JSON: {err}")
    for key in ("attempted", "failed", "samples", "layer", "counters",
                "checks"):
        if key not in raw:
            raise BenchError(f"vp_perfbench's result has no '{key}'")
    trace = None
    for line in lines[:-1]:
        if line.startswith("trace_file "):
            trace = line[len("trace_file "):].strip()
    return raw, trace


def parse_spans(trace_json):
    """Chrome trace-event JSON -> list of (name, start_us, dur_us)."""
    events = trace_json.get("traceEvents")
    if not isinstance(events, list):
        raise BenchError("the trace has no traceEvents list")
    return [(e["name"], float(e["ts"]), float(e["dur"])) for e in events
            if e.get("ph") == "X"]


def span_durations(spans, name):
    return [dur for span_name, _, dur in spans if span_name == name]


def busy_share(spans, handlers=HANDLER_SPANS, window="serve.window"):
    """Share of the serve windows' wall time the server spent inside
    request handlers."""
    windows = [(ts, ts + dur) for name, ts, dur in spans if name == window]
    total = sum(end - start for start, end in windows)
    if total <= 0:
        raise BenchError(f"no '{window}' spans")
    busy = sum(dur for name, ts, dur in spans
               if name in handlers and any(s <= ts < e for s, e in windows))
    return busy / total


def end_to_end_metrics(raw):
    metrics = {}
    for name, (series, how, unit) in END_TO_END.items():
        values = raw["samples"].get(series)
        if not values:
            raise BenchError(f"no '{series}' samples for {name}")
        metrics[name] = {"value": reduce(values, how), "unit": unit}
    return metrics


def per_layer_metrics(raw, spans, workload):
    metrics = {}
    to_unit = {"ms": 1e-3, "us": 1.0}  # span durations are in us
    for name, (span, unit) in SPAN_METRICS.items():
        durations = span_durations(spans, span)
        if not durations:
            raise BenchError(f"no '{span}' spans for {name}")
        metrics[name] = {"value": median(durations) * to_unit[unit],
                         "unit": unit}
    for name, unit in SAMPLED_METRICS.items():
        values = raw["layer"].get(name)
        if not values:
            raise BenchError(f"no '{name}' samples")
        metrics[name] = {"value": median(values), "unit": unit}
    for name, unit in COUNTER_METRICS.items():
        if name not in raw["counters"]:
            raise BenchError(f"no '{name}' counter")
        metrics[name] = {"value": raw["counters"][name], "unit": unit}

    client = span_durations(spans, "client.block")
    handler = span_durations(spans, "service.handle_block")
    if not client or not handler:
        raise BenchError("no /block spans for net.transport_us")
    metrics["net.transport_us"] = {"value": median(client) - median(handler),
                                   "unit": "us"}
    metrics["service.handler_busy_share"] = {"value": busy_share(spans),
                                             "unit": "ratio"}
    series, how = OVERHEAD_SERIES[workload]
    traced = raw["samples"].get("traced." + series)
    untraced = raw["samples"].get("untraced." + series)
    if not traced or not untraced:
        raise BenchError(f"no traced/untraced '{series}' samples")
    base = reduce(untraced, how)
    metrics["trace.overhead_pct"] = {
        "value": (reduce(traced, how) - base) / base * 100.0, "unit": "%"}
    return metrics


def summary_lines(raw):
    """Human-readable lines: every timing series with its median, its
    highest well-populated tail percentile and its sample count."""
    lines = []
    for series in sorted(raw["samples"]):
        values = raw["samples"][series]
        if not values:
            continue
        level = tail_level(len(values))
        tail = (f"p{level:g} {percentile(values, level):.6g}"
                if level is not None else "tail n/a")
        lines.append(f"{series:24s} median {median(values):.6g}  {tail}  "
                     f"n={len(values)}")
    return lines


def correctness(raw, workload):
    """(correct, failing check names) for a raw result of `workload`."""
    checks = raw["checks"]
    failing = sorted(name for name, ok in checks.items() if not ok)
    missing = sorted(name for name in REQUIRED_CHECKS[workload]
                     if name not in checks)
    failing += [f"{name} (missing)" for name in missing]
    return not failing and raw["failed"] == 0, failing


def result_line(raw, metrics, workload):
    """The last line run.py prints."""
    correct, _ = correctness(raw, workload)
    return json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    })
