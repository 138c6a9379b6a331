// The sharded probe engine: runs one measurement round across N worker
// threads and merges their shards into a result that is bit-identical to
// the serial walk.
//
// Why this is safe to parallelize: every stochastic decision on the probe
// path — responsiveness, duplicates, aliases, flips, RTT jitter — is a
// pure function of (block, round, seed) (see sim/), and the hitlist's
// pseudorandom order plus per-probe timestamps and ICMP sequence numbers
// are pure functions of the probe's *global index* in that order. So the
// engine:
//
//   1. materializes the round's probe order and (in multi-target mode)
//      prefix-sums the per-entry target counts, giving every probe its
//      global index up front;
//   2. splits the order into N *contiguous* chunks of roughly equal probe
//      count, then each worker walks its chunk in block-range TILES: a
//      counting sort groups the chunk's positions by entry-index range,
//      so the resolver/geo/responsiveness rows a tile touches stay
//      cache-resident while its probes run. Tx times and sequence numbers
//      are pure functions of the global index, so the walk order cannot
//      change a single packet. Replies accumulate in per-(shard, site)
//      structure-of-arrays buffers tagged with (global probe index,
//      per-probe delivery seq);
//   3. merges: all shard rows are gathered and sorted by the strict total
//      order (arrival, site, probe index, seq). This reproduces the
//      legacy pipeline — site-major shard-order concatenation followed by
//      a stable sort on arrival — exactly: within one (site, shard) list
//      records were appended in ascending (probe index, seq), and shards
//      own ascending disjoint probe-index ranges, so the legacy
//      equal-arrival tie order WAS (site, probe index, seq). The
//      first-reply-wins cleaning pass then runs unchanged (paper §4).
//
// Equal-arrival ties therefore resolve identically for any thread count
// AND any tile size, and the CatchmentMap, CleaningStats, and per-block
// RTTs match the one-thread run bit for bit.
//
// Faults and retries preserve the guarantee: the fault plan
// (sim/fault_injector.hpp) is const-pure like the rest of sim/, retry
// attempt times are pure functions of (global probe index, attempt), and
// fault counters are per-shard sums — so a faulty, retrying round is
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
              const hitlist::Hitlist& hitlist)
      : internet_(&internet), hitlist_(&hitlist) {}

  /// Runs one round against the current BGP state with spec.threads
  /// probe workers. Safe to call concurrently from multiple threads
  /// (e.g. overlapping rounds of a campaign): the engine holds no
  /// mutable state and the sim layer is const-pure.
  RoundResult run(const bgp::RoutingTable& routes, const RoundSpec& spec,
                  RoundObserver* observer = nullptr) const;

 private:
  const sim::InternetSim* internet_;
  const hitlist::Hitlist* hitlist_;
};

}  // namespace vp::core
