// Dataset export/import (the paper releases all measurement data as
// per-block catchment tables; see its Table 1/2 dataset citations).
//
// Format: plain CSV, one row per mapped /24 in ascending block order —
//     block,site,rtt_ms
//     1.2.3.0/24,LAX,182.40
// Unmapped blocks are simply absent. Load datasets use
//     block,daily_queries,good_fraction
// Both formats round-trip exactly (RTTs at two decimals).
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "anycast/deployment.hpp"
#include "core/round.hpp"
#include "dnsload/load_model.hpp"

namespace vp::core {

/// A measured round (catchment + RTTs) as CSV text.
std::string catchment_csv(const RoundResult& round,
                          const anycast::Deployment& deployment);

/// Writes catchment_csv(round, deployment) to `out` in 64 KB chunks, as
/// the rows are rendered, without building the whole text first.
void write_catchment_csv(std::ostream& out, const RoundResult& round,
                         const anycast::Deployment& deployment);

/// Appends the rtt_ms column's text for `rtt_ms`, from the formatter
/// both writers run: exactly std::to_chars(double(rtt_ms), fixed, 2),
/// i.e. printf "%.2f".
void append_rtt(std::string& out, float rtt_ms);

/// Reads a catchment CSV back. Unknown site codes, malformed rows,
/// repeated blocks and RTTs that are negative, non-finite or too large
/// for a float make the whole load fail (datasets are either intact or
/// rejected).
std::optional<RoundResult> read_catchment_csv(
    std::istream& in, const anycast::Deployment& deployment);

/// Writes a load model's per-block volumes as CSV.
void write_load_csv(std::ostream& out, const dnsload::LoadModel& load);
void write_load_csv(std::ostream& out,
                    std::span<const dnsload::BlockLoad> blocks);

/// A load dataset read back from CSV (the subset of LoadModel the
/// analyses need, without regenerating the model).
struct LoadDataset {
  std::vector<dnsload::BlockLoad> blocks;
  double total_daily_queries = 0.0;
};

/// Rejects duplicate block rows (they would double-count into
/// total_daily_queries), like the catchment reader does.
std::optional<LoadDataset> read_load_csv(std::istream& in);

/// Convenience file wrappers; return false / nullopt on I/O failure.
/// Saves go through util::atomic_write_file — a crash mid-save leaves
/// either the previous file or the complete new one, never a torn CSV.
bool save_catchment(const std::string& path, const RoundResult& round,
                    const anycast::Deployment& deployment);
bool save_load_csv(const std::string& path, const dnsload::LoadModel& load);
std::optional<RoundResult> load_catchment(
    const std::string& path, const anycast::Deployment& deployment);

}  // namespace vp::core
