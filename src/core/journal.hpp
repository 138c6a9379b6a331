// CampaignJournal: an append-only, CRC-framed write-ahead log of
// completed campaign rounds, so a multi-day run (the paper's 24-hour,
// 96-round campaign, §4.2) survives a crash, OOM, or operator kill at
// any instruction and resumes bit-identically.
//
// Why this works at all: every round is a pure function of its RoundSpec
// (core/round.hpp), so a journaled result IS the result a re-run would
// produce. The journal therefore only has to guarantee two things —
// records are either durably complete or detectably absent, and a
// journal is never replayed against a different campaign configuration.
//
// File format (little-endian):
//
//   frame   := payload_len:u32  crc32(payload):u32  payload
//   payload := type:u8 body
//   file    := manifest-frame round-frame*
//
// The manifest body carries a format version and a 64-bit fingerprint of
// everything that determines results: probe config (order seed, rate,
// cutoff, retries, ...), round count, interval, threads, the fault plan,
// and a deployment hash. Round bodies carry the round id plus the full
// serialized RoundResult — rounds complete out of order under
// Campaign::concurrency(), so resume takes the *set* of journaled round
// ids, never a high-water mark.
//
// Reader semantics mirror classic WAL recovery:
//   - a torn tail (file ends mid-frame — the signature of a crash during
//     append) is truncated and the campaign re-runs that round;
//   - a complete frame whose CRC fails (bit rot, manual edit) refuses the
//     whole journal: silently resuming past corruption could split one
//     campaign's artifacts across two realities. So does a CRC-valid
//     round whose content encode_round never writes: a site table whose
//     size is not the deployment's site count, a site id outside it, a
//     block listed twice in the map or the RTT section, an RTT for an
//     unmapped block, or a negative, NaN or infinite RTT;
//   - a manifest fingerprint mismatch refuses resume: the journal belongs
//     to a different campaign.
//
// Appends are write()+fsync of one frame; the frame never spans files and
// rename() is not needed because append-only frames are self-delimiting.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/round.hpp"

namespace vp::core {

/// Identity of the campaign a journal belongs to. `fingerprint` must
/// cover every input that changes results (see campaign_fingerprint).
struct JournalManifest {
  std::uint64_t fingerprint = 0;
  std::uint32_t rounds = 0;
  /// The deployment's site count. Resume refuses a round record whose
  /// site table has any other size (the engine always writes one tally
  /// per deployment site), so no record names a site the deployment
  /// lacks. Kept in memory only: the fingerprint already covers the
  /// deployment.
  std::size_t site_count = 0;
};

/// Outcome of opening a journal (and, by extension, of a journaled
/// campaign run — CampaignReport carries one of these).
enum class JournalStatus {
  kDisabled,             ///< no journal path configured
  kFresh,                ///< new journal started (no usable prior state)
  kResumed,              ///< existing journal accepted; completed rounds loaded
  kFingerprintMismatch,  ///< journal belongs to a different campaign config
  kCorrupt,              ///< a record failed its CRC or content checks
  kIoError,              ///< open/write/fsync failure
};

/// Human-readable status name for logs and CLI messages.
const char* to_string(JournalStatus status);

class CampaignJournal {
 public:
  struct OpenResult {
    JournalStatus status = JournalStatus::kIoError;
    /// Fully-journaled rounds by id (empty unless status == kResumed).
    std::map<std::uint32_t, RoundResult> completed;
    /// Bytes of torn tail discarded during recovery (kResumed only).
    std::uint64_t truncated_bytes = 0;
  };

  CampaignJournal() = default;
  ~CampaignJournal() { close(); }
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Opens `path` for appending. With `resume`, an existing file is
  /// validated against `manifest`: matching journals return kResumed with
  /// their completed rounds (torn tail truncated in place); mismatched or
  /// corrupt journals refuse — the file is left untouched and the journal
  /// stays closed. Without `resume`, the journal is recreated with a
  /// fresh manifest (kFresh).
  ///
  /// Empty-file contract: a 0-byte journal resumes exactly like a missing
  /// one — kFresh, no rounds loaded, file recreated. An empty file is the
  /// fingerprint of a crash before the manifest write (cut position 0 of
  /// the kill-point harness), so there is by construction no state to
  /// validate against and nothing to refuse; journal_test pins this.
  OpenResult open(const std::string& path, const JournalManifest& manifest,
                  bool resume);

  /// Appends one completed round and fsyncs. Safe to call from the thread
  /// that finished the round as long as callers serialize (Campaign holds
  /// a mutex). Returns false on I/O failure; the journal closes itself so
  /// later appends fail fast rather than writing past a hole.
  bool append_round(std::uint32_t round, const RoundResult& result);

  bool is_open() const { return fd_ >= 0; }
  void close();

  /// Serialization, exposed so tests can build frames to mutilate.
  static std::string encode_manifest(const JournalManifest& manifest);
  static std::string encode_round(std::uint32_t round,
                                  const RoundResult& result);
  /// Wraps a payload in the length+CRC frame.
  static std::string frame(std::string_view payload);

 private:
  int fd_ = -1;
};

/// 64-bit fingerprint of a probe configuration and the round constants
/// (every one affects results; floats hash by bit pattern).
std::uint64_t probe_fingerprint(const ProbeConfig& probe);

/// 64-bit fingerprint of a fault plan (0 for "no injector").
std::uint64_t fault_fingerprint(const sim::FaultInjector* faults);

}  // namespace vp::core
