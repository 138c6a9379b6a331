// Topology persistence and fingerprinting.
//
// `vpctl gen --out` saves a generated topology so scale experiments can
// reload it instead of regenerating; the golden-stats regression test and
// the determinism suite share structural_digest() as the canonical
// fingerprint of graph structure.
#pragma once

#include <cstdint>
#include <string>

#include "topology/topology.hpp"

namespace vp::topology {

/// Order-sensitive 64-bit fingerprint of everything structural in a
/// topology: ASes (ASN, tier, flags, pop centers, index ranges), links
/// (neighbor, relationship, attachment pops, pref bonuses), announced
/// prefixes, block ownership, and geo coverage (block -> center mapping).
/// Floating-point geo jitter is deliberately excluded — it passes through
/// libm (normal/cos/log), whose last-ulp behavior varies across hosts,
/// and golden files must not.
std::uint64_t structural_digest(const Topology& topo);

/// Serializes the full topology (including geo coordinates) to a compact
/// binary image, CRC-framed and carrying its structural digest.
std::string serialize_topology(const Topology& topo);

/// Atomically writes serialize_topology() to `path`. Returns false on I/O
/// failure.
bool save_topology(const Topology& topo, const std::string& path);

/// Rebuilds a topology from a serialized image. Returns false on a
/// malformed image, CRC mismatch, an index outside the table it points
/// into (AS, PoP, prefix, population center, enum byte, or a prefix
/// longer than /24), a block outside its prefix, listed twice or apart
/// from the rest of its AS's blocks, a geo record for a block the image
/// does not list, or digest mismatch after the rebuild (`error` gets a
/// one-line reason). Blocks and geo records may come in any other order.
bool deserialize_topology(const std::string& bytes, Topology& out,
                          std::string& error);

/// Reads and deserializes `path`.
bool load_topology(const std::string& path, Topology& out,
                   std::string& error);

}  // namespace vp::topology
