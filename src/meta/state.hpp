// The replicated half of the Manager's state.
//
// ReplicatedState is the pure, deterministic state machine the changelog
// drives: lines, the export table (per-process export groups keyed by
// process address, spec hashes included), and the line-id counter. It is
// what a follower mirrors, what a snapshot serializes, and what a freshly
// elected leader rebuilds its full Manager bookkeeping from.
//
// apply() is *idempotent by index*: every record carries its changelog
// index and a record at or below last_applied() is a no-op, so replaying
// an overlapping snapshot + log tail (or the same log twice) converges to
// the same table. Serialization is canonical — all containers are ordered
// — so two replicas with equal state produce byte-identical images and
// equal digest() values, which is how the fault suite proves the export
// table survived a failover intact.
//
// Threading: replica-thread confined (lock_hierarchy.md). Each replica
// owns one ReplicatedState, mutated only from its own manager_main
// thread; replication happens by shipping records/snapshots, not by
// sharing this object, so it is deliberately lock-free and carries no
// thread-safety annotations.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "meta/record.hpp"
#include "util/bytes.hpp"

namespace npss::meta {

/// Every procedure one process registered in one kExport handshake.
struct ExportGroup {
  std::int64_t line = -1;  ///< -1 (kNoLine) for shared procedures
  bool shared = false;
  std::string machine;
  std::string path;
  std::string spec_hash;  ///< the PR 5 spec sha256 the exporter stamped
  std::vector<std::pair<std::string, std::string>> procs;

  bool operator==(const ExportGroup&) const = default;
};

struct LineInfo {
  std::string description;
  /// Outstanding-call quota the leader granted at admission (0 =
  /// unlimited); replicated so a new leader re-states the same policy.
  std::int64_t quota = 0;

  bool operator==(const LineInfo&) const = default;
};

class ReplicatedState {
 public:
  /// Apply `record` as changelog entry `index`. Returns false (and changes
  /// nothing) when index <= last_applied() — the replay-idempotence rule.
  bool apply(const ChangeRecord& record, std::uint64_t index);

  std::uint64_t last_applied() const { return last_applied_; }
  std::int64_t next_line() const { return next_line_; }

  const std::map<std::int64_t, LineInfo>& lines() const { return lines_; }
  /// Export table: process address -> its export group.
  const std::map<std::string, ExportGroup>& exports() const {
    return exports_;
  }

  /// Canonical snapshot image (versioned; see kStateVersion).
  util::Bytes serialize() const;
  static ReplicatedState deserialize(std::span<const std::uint8_t> bytes);

  /// sha256 of the canonical image — the export-table fingerprint the
  /// failover transcript compares across a leader change.
  std::string digest() const;

  /// True when `other` holds the same table — exactly the fields digest()
  /// hashes (next line id, lines, exports; not last_applied()), so
  /// same_table() == (digest() == other.digest()) without building either
  /// image. meta_check's per-step convergence check uses it.
  bool same_table(const ReplicatedState& other) const {
    return next_line_ == other.next_line_ && lines_ == other.lines_ &&
           exports_ == other.exports_;
  }

  bool operator==(const ReplicatedState&) const = default;

 private:
  std::uint64_t last_applied_ = 0;
  std::int64_t next_line_ = 1;
  std::map<std::int64_t, LineInfo> lines_;
  std::map<std::string, ExportGroup> exports_;
};

/// v2: + LineInfo::quota (admission-control grant).
constexpr std::uint8_t kStateVersion = 2;

}  // namespace npss::meta
