// Metric export: deterministic JSON and Prometheus text renderings of a
// registry snapshot, plus an atomic file writer for `--metrics-out`.
//
// Both formats render the snapshot's name-sorted metric list, so two
// exports of the same state are byte-identical (golden-file tested).
// Histogram buckets are cumulative in both formats (Prometheus `le`
// semantics); names may embed labels — `vp_x_total{site="LAX"}` — and
// the Prometheus renderer folds them correctly into histogram series
// (`vp_x_bucket{site="LAX",le="5"}`).
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace vp::obs {

/// `text` with its quotes and backslashes escaped for a JSON string:
/// metric names embed label syntax (`{site="LAX"}`), and the daemon's
/// bodies echo site codes and query text.
std::string json_escape(std::string_view text);

std::string to_json(const Snapshot& snapshot);
std::string to_prometheus(const Snapshot& snapshot);

/// Writes a snapshot through util::atomic_write_file. Format follows the
/// extension: `.prom` / `.txt` get Prometheus text, anything else JSON.
/// Returns false on I/O failure (target untouched).
bool write_metrics_file(const std::string& path, const Snapshot& snapshot);

}  // namespace vp::obs
