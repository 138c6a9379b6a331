#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace perfbench {
namespace {

const Clock::time_point kEpoch = Clock::now();

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{0};
std::atomic<std::uint32_t> g_next_thread{0};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

thread_local std::int64_t t_current = -1;

std::uint32_t thread_index() {
  thread_local const std::uint32_t index = g_next_thread.fetch_add(1);
  return index;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void Tracer::record(SpanRecord span) {
  span.thread = thread_index();
  std::lock_guard lock{g_mutex};
  g_spans.push_back(std::move(span));
}

std::int64_t Tracer::next_id() { return g_next_id.fetch_add(1); }

std::size_t Tracer::size() const {
  std::lock_guard lock{g_mutex};
  return g_spans.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard lock{g_mutex};
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread,
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

Span::Span(const char* name)
    : name_(name), active_(Tracer::instance().enabled()) {
  if (!active_) return;
  id_ = Tracer::instance().next_id();
  parent_ = t_current;
  t_current = id_;
  start_s_ = now_s();
}

Span::~Span() {
  if (!active_) return;
  const double end = now_s();
  t_current = parent_;
  Tracer::instance().record(
      SpanRecord{name_, start_s_, end, id_, parent_, 0});
}

}  // namespace perfbench
