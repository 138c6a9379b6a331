// The argument layer vpctl and vpd share: `--key value` parsing, the
// exit-code contract, and the option helpers both binaries read the same
// way (scenario, deployment, probe retries, the --fault-seed plan, the
// journal refusal messages and the --metrics-out flush).
#pragma once

#include <concepts>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/scenario.hpp"
#include "core/journal.hpp"
#include "core/round.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"
#include "util/parse.hpp"

namespace vp::cli {

/// Exit codes beyond 0/1/2 (ok / runtime error / usage), so scripts and
/// the crash harnesses can tell resume outcomes apart.
inline constexpr int kExitResumed = 3;              // completed after a resume
inline constexpr int kExitFingerprintMismatch = 4;  // journal is another run's
inline constexpr int kExitCorruptJournal = 5;       // corrupt record, refused
// Any output artifact (--out, --metrics-out, --port-file, the journal)
// failed to write. Writes go through util::atomic_file (and journal
// appends fail fast on I/O errors), so failure surfaces at flush time — a
// command must never exit 0 after silently losing its artifact.
inline constexpr int kExitWriteFailed = 6;
// SIGINT/SIGTERM landed mid-campaign: the in-flight round and its journal
// append completed, metrics flushed, later rounds were skipped. The
// journal is a resumable prefix; rerun with --resume to finish.
inline constexpr int kExitInterrupted = 7;

/// Thrown for a numeric option whose value is not a number, or not one
/// in the option's range. Both binaries' main reports it and exits 2,
/// like any other usage error.
struct BadNumber {
  std::string key;
  std::string range;  ///< " in [0, N]" for counts; empty otherwise

  int report() const {
    std::fprintf(stderr, "error: --%s expects a number%s\n", key.c_str(),
                 range.c_str());
    return 2;
  }
};

/// The BadNumber for a count option whose value is not in [0, max].
template <std::integral T>
BadNumber bad_count(const std::string& key, T max) {
  return BadNumber{key, " in [0, " + std::to_string(max) + "]"};
}

struct Args {
  std::string command;  // vpctl's subcommand; empty for vpd
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    return get_number(key, fallback);
  }
  long get_long(const std::string& key, long fallback) const {
    return get_number(key, fallback);
  }

  /// The number `key` holds (see util::parse_number), or `fallback` when
  /// it is absent. Throws BadNumber for anything else.
  template <typename T>
  T get_number(const std::string& key, T fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const auto value = util::parse_number<T>(it->second);
    if (!value) throw BadNumber{key, ""};
    return *value;
  }

  /// The count `key` holds (see util::parse_count), or `fallback` when
  /// it is absent. Counts and ports fit the field they set, so "-1", or
  /// 70000 for a port, throws BadNumber instead of wrapping.
  template <std::integral T>
  T get_count(const std::string& key, T fallback,
              T max = std::numeric_limits<T>::max()) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const auto value = util::parse_count<T>(it->second, max);
    if (!value) throw bad_count(key, max);
    return *value;
  }
};

/// Parses `argv`. With `has_command`, argv[1] is a required subcommand.
/// Every later word is `--key value`, or a bare `--key` when the key is
/// one of `boolean_flags`. nullopt on a missing command or value, or on a
/// word that is not a `--key`.
inline std::optional<Args> parse_args(
    int argc, char** argv, bool has_command,
    std::initializer_list<std::string_view> boolean_flags) {
  Args args;
  int i = 1;
  if (has_command) {
    if (argc < 2) return std::nullopt;
    args.command = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) return std::nullopt;
    const std::string key{arg.substr(2)};
    bool boolean = false;
    for (const std::string_view flag : boolean_flags) boolean |= flag == key;
    if (boolean) {
      args.options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    args.options[key] = argv[++i];
  }
  return args;
}

/// The simulated Internet behind --scale/--seed, announced before the
/// (slow) build.
inline analysis::Scenario make_scenario(const Args& args) {
  analysis::ScenarioConfig config;
  config.scale = args.get_double("scale", 0.4);
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  std::printf("building simulated Internet (scale %.2f, seed %llu)...\n",
              config.scale, static_cast<unsigned long long>(config.seed));
  return analysis::Scenario{config};
}

/// --deployment broot (default) | tangled.
inline const anycast::Deployment& pick_deployment(
    const analysis::Scenario& scenario, const Args& args) {
  return args.get("deployment", "broot") == "tangled" ? scenario.tangled()
                                                      : scenario.broot();
}

/// --retries / --timeout-ms / --backoff-ms.
inline void apply_retry_args(core::ProbeConfig& probe, const Args& args) {
  probe.max_retries = args.get_count("retries", 0);
  probe.probe_timeout_ms = args.get_double("timeout-ms", 1000.0);
  probe.retry_backoff_ms = args.get_double("backoff-ms", 250.0);
}

/// The seeded fault plan behind --fault-seed (nullopt = run clean).
inline std::optional<sim::FaultInjector> make_injector(const Args& args) {
  if (!args.has("fault-seed")) return std::nullopt;
  const auto seed = static_cast<std::uint64_t>(args.get_long("fault-seed", 1));
  std::printf("injecting faults (plan seed %llu)\n",
              static_cast<unsigned long long>(seed));
  return sim::FaultInjector{sim::FaultPlan::from_seed(seed)};
}

/// Explains a refused resume on stderr and returns its exit code; 0 when
/// `status` is no refusal.
inline int journal_refusal(core::JournalStatus status) {
  switch (status) {
    case core::JournalStatus::kFingerprintMismatch:
      std::fprintf(stderr,
                   "error: journal was written by a different campaign "
                   "config; refusing to resume\n");
      return kExitFingerprintMismatch;
    case core::JournalStatus::kCorrupt:
      std::fprintf(stderr,
                   "error: journal has a corrupt record (bad checksum or "
                   "content); refusing to resume\n");
      return kExitCorruptJournal;
    default:
      return 0;
  }
}

/// Dumps the metrics registry to --metrics-out, if given, and returns the
/// command's final exit code. A failed dump turns only a successful-so-far
/// run into kExitWriteFailed; a more specific failure in `rc` wins.
inline int finish_metrics(const Args& args, int rc) {
  if (!args.has("metrics-out")) return rc;
  const std::string path = args.get("metrics-out", "metrics.json");
  if (obs::write_metrics_file(path, obs::metrics().snapshot())) {
    std::printf("metrics written to %s\n", path.c_str());
    return rc;
  }
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return rc == 0 || rc == kExitResumed ? kExitWriteFailed : rc;
}

}  // namespace vp::cli
