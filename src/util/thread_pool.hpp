// Fork-join threading: the one way this code base runs work in parallel.
//
// run_shards starts one short-lived thread per shard; parallel_for splits
// an index range into contiguous chunks over it. Callers with uneven work
// (the probe engine's runs, a campaign's rounds) have their shards claim
// items from an atomic counter instead. Spawning is a few tens of
// microseconds per thread, noise next to a round.
//
// Both rethrow the first exception a worker raised, after every worker
// has finished, so partial work never escapes silently.
#pragma once

#include <cstddef>
#include <functional>

namespace vp::util {

/// Resolves a user-facing thread-count knob: 0 means "one per hardware
/// thread", anything else is taken literally (capped at 256 for sanity).
unsigned resolve_threads(unsigned requested) noexcept;

/// Runs body(shard) for shard in [0, shards) on `shards` threads (the
/// calling thread runs shard 0). Fork-join: returns once all shards are
/// done. `shards <= 1` runs inline with no thread spawned.
void run_shards(unsigned shards, const std::function<void(unsigned)>& body);

/// Splits [0, count) into `threads` contiguous chunks and runs
/// body(begin, end) for each chunk concurrently. Chunk boundaries are a
/// pure function of (count, threads), so work assignment is deterministic.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace vp::util
