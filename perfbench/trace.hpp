// Span recording for the traced benchmark run.
//
// A span is (name, start, end, parent span, thread) around one call into a
// public layer API. Spans stay in memory while the benchmark runs and are
// written once, at exit, as Chrome trace-event JSON (chrome://tracing and
// Perfetto open it offline); run.py turns them into per-layer metrics.
// With tracing off, Span costs one relaxed atomic load.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since process start (the tracer's epoch).
double now_s();

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on);
  bool enabled() const;

  /// Records a finished span (thread-safe).
  void record(SpanRecord span);
  std::int64_t next_id();

  /// Writes every recorded span as Chrome trace-event JSON. Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;
  std::size_t size() const;
};

/// RAII span: times its scope and nests under the innermost open span of
/// the same thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  std::int64_t id_ = -1;
  std::int64_t parent_ = -1;
  double start_s_ = 0.0;
};

}  // namespace perfbench
