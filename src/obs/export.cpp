#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "util/atomic_file.hpp"

namespace vp::obs {

namespace {

/// Shortest round-trippable rendering of a double; integral values print
/// without a trailing ".0" so goldens stay readable.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Splits "base{labels}" into its parts; labels come back without braces
/// (empty when the name carries none).
void split_labels(const std::string& name, std::string& base,
                  std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    base = name;
    labels.clear();
    return;
  }
  base = name.substr(0, brace);
  labels = name.substr(brace + 1, name.size() - brace - 2);
}

/// "base_suffix{labels,le=\"bound\"}" with correct comma placement.
std::string series(const std::string& base, const std::string& suffix,
                   const std::string& labels, const std::string& extra = {}) {
  std::string out = base + suffix;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << json_escape(m.name) << "\", ";
    switch (m.kind) {
      case MetricKind::kCounter:
        out << "\"type\": \"counter\", \"value\": " << m.counter_value << '}';
        break;
      case MetricKind::kGauge:
        out << "\"type\": \"gauge\", \"value\": " << fmt_double(m.gauge_value)
            << '}';
        break;
      case MetricKind::kHistogram: {
        out << "\"type\": \"histogram\", \"count\": " << m.count
            << ", \"sum\": " << fmt_double(m.sum)
            << ", \"min\": " << fmt_double(m.min)
            << ", \"max\": " << fmt_double(m.max)
            << ", \"nan_rejected\": " << m.nan_rejected << ", \"buckets\": [";
        for (std::size_t i = 0; i < m.cumulative.size(); ++i) {
          if (i > 0) out << ", ";
          out << "{\"le\": ";
          if (i < m.bounds.size())
            out << fmt_double(m.bounds[i]);
          else
            out << "\"+Inf\"";
          out << ", \"count\": " << m.cumulative[i] << '}';
        }
        out << "]}";
        break;
      }
    }
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::ostringstream out;
  std::string base, labels, last_base;
  for (const MetricSnapshot& m : snapshot.metrics) {
    split_labels(m.name, base, labels);
    // The snapshot is name-sorted, so labeled series of one base metric
    // are adjacent: one TYPE line covers them all.
    const bool new_base = base != last_base;
    last_base = base;
    switch (m.kind) {
      case MetricKind::kCounter:
        if (new_base) out << "# TYPE " << base << " counter\n";
        out << m.name << ' ' << m.counter_value << '\n';
        break;
      case MetricKind::kGauge:
        if (new_base) out << "# TYPE " << base << " gauge\n";
        out << m.name << ' ' << fmt_double(m.gauge_value) << '\n';
        break;
      case MetricKind::kHistogram: {
        if (new_base) out << "# TYPE " << base << " histogram\n";
        for (std::size_t i = 0; i < m.cumulative.size(); ++i) {
          const std::string le =
              i < m.bounds.size() ? fmt_double(m.bounds[i]) : "+Inf";
          out << series(base, "_bucket", labels, "le=\"" + le + "\"") << ' '
              << m.cumulative[i] << '\n';
        }
        out << series(base, "_sum", labels) << ' ' << fmt_double(m.sum)
            << '\n';
        out << series(base, "_count", labels) << ' ' << m.count << '\n';
        break;
      }
    }
  }
  return out.str();
}

bool write_metrics_file(const std::string& path, const Snapshot& snapshot) {
  const bool prom = path.ends_with(".prom") || path.ends_with(".txt");
  return util::atomic_write_file(path,
                                 prom ? to_prometheus(snapshot)
                                      : to_json(snapshot));
}

}  // namespace vp::obs
