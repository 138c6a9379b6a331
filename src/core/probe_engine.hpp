// The parallel probe engine: runs one measurement round across N worker
// threads and produces a result that is bit-identical to the serial walk.
//
// Why this is safe to parallelize: every stochastic decision on the probe
// path — responsiveness, duplicates, aliases, flips, RTT jitter — is a
// pure function of (block, round, seed) (see sim/), and the hitlist's
// pseudorandom order plus per-probe timestamps and ICMP sequence numbers
// are pure functions of the probe's *global index* in that order. So the
// engine:
//
//   1. materializes the round's probe order and its inverse (entry ->
//      order position); every entry gets exactly one probe, so that
//      position is the probe's global index;
//   2. probes in BLOCK-ORDERED RUNS: workers claim fixed-size runs of
//      consecutive hitlist entries from a shared counter and walk each
//      run in entry order, which is block order, so the resolver, geo and
//      responsiveness rows the probes read stream through cache. Each
//      probe reads its global index from the inverse permutation, and
//      that index alone sets its tx time, ICMP sequence, retry times and
//      merge key, so neither the walk order nor which worker claimed a
//      run can change a single packet. Replies land in the run's
//      structure-of-arrays rows tagged with (global probe index,
//      per-probe delivery seq);
//   3. cleans by PER-BLOCK FIRST-REPLY REDUCTION (core/cleaning.hpp):
//      every filter is per reply, and first-reply-wins keeps each
//      block's least surviving reply under the strict total order
//      (arrival, site, probe index, seq) — the order the legacy
//      site-major shard concat + stable arrival sort produced, since
//      within one (site, shard) list replies were appended in ascending
//      (probe index, seq) and shards owned ascending disjoint index
//      ranges. A minimum needs no sort: after the probe workers join,
//      each worker owns whole /8 pages of the CatchmentMap, reduces the
//      rows whose source block lies in them to one winner per block, and
//      fills its pages in block order; duplicates = survivors − winners.
//
// Equal-arrival ties therefore resolve identically for any thread count,
// and the CatchmentMap, CleaningStats, and per-block RTTs match the
// one-thread run bit for bit.
//
// Faults and retries preserve the guarantee: the fault plan
// (sim/fault_injector.hpp) is const-pure like the rest of sim/, retry
// attempt times are pure functions of (global probe index, attempt), and
// fault counters are per-worker sums — so a faulty, retrying round is
// still bit-identical for any thread count.
#pragma once

#include "bgp/routing.hpp"
#include "core/round.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"

namespace vp::core {

class ProbeEngine {
 public:
  ProbeEngine(const sim::InternetSim& internet,
              const hitlist::Hitlist& hitlist);

  /// Runs one round against the current BGP state with spec.threads
  /// probe workers. Safe to call concurrently from multiple threads
  /// (e.g. overlapping rounds of a campaign): the engine holds no
  /// mutable state and the sim layer is const-pure.
  RoundResult run(const bgp::RoutingTable& routes, const RoundSpec& spec,
                  RoundObserver* observer = nullptr) const;

 private:
  const sim::InternetSim* internet_;
  const hitlist::Hitlist* hitlist_;
  /// The hitlist's blocks lie in [block_lo_, block_lo_ + block_span_),
  /// the range the engine's per-block tables cover.
  std::uint32_t block_lo_ = 0;
  std::size_t block_span_ = 0;
  /// Block offset -> the address its entry probes (0 for blocks outside
  /// the hitlist): the cleaner's unsolicited-reply check.
  std::vector<std::uint32_t> addr_by_block_;
};

}  // namespace vp::core
