// Per-client reply cache (§V-A dedup / retry), shared by every ordering
// protocol through the ReplicaRuntime.
//
// Clients sign strictly monotone timestamps, so one entry per client — the
// reply to its highest executed timestamp — suffices to (a) serve retries of
// the latest request and (b) refuse to re-execute anything at or below it.
// The cache is serialized into checkpoint snapshots: a replica recovering
// from its WAL (or adopting a checkpoint via state transfer) suppresses
// duplicates of *pre-checkpoint* requests instead of re-executing them,
// which is a correctness requirement for non-idempotent services (an EVM
// transfer applied twice diverges from the certified state root).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "proto/types.h"

namespace sbft::runtime {

struct CachedReply {
  uint64_t timestamp = 0;
  SeqNum seq = 0;      // sequence the reply was produced at
  uint64_t index = 0;  // position within that decision block
  Bytes value;
};

/// Entries sit in one vector sorted by client id, so a lookup is a binary
/// search over contiguous memory: every replica looks its cache up once per
/// executed request.
class ReplyCache {
 public:
  using Entry = std::pair<ClientId, CachedReply>;

  /// Latest cached reply for the client (nullptr if none). The pointer is
  /// valid until the next store, absorb or clear.
  const CachedReply* find(ClientId client) const;
  /// True when `timestamp` is at or below the client's executed watermark —
  /// i.e. the request must not execute again.
  bool is_duplicate(ClientId client, uint64_t timestamp) const;
  /// Records the reply for the client's newest executed request.
  void store(ClientId client, uint64_t timestamp, SeqNum seq, uint64_t index,
             Bytes value);
  /// Merges `other` in, keeping the newest entry per client (used when a
  /// state-transfer snapshot carries a cache that may lag our own).
  void absorb(ReplyCache&& other);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Full cache contents in ascending client order — cross-replica
  /// consistency audits (harness/audit.h) compare caches entry by entry.
  const std::vector<Entry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

  /// Canonical encoding (embedded in checkpoint snapshots): the entries in
  /// ascending client order.
  Bytes encode() const;
  /// nullopt on malformed or non-canonical input: a client id wider than
  /// ClientId, or one not above the id before it.
  static std::optional<ReplyCache> decode(ByteSpan data);

 private:
  std::vector<Entry> entries_;  // sorted by client, one entry each
};

}  // namespace sbft::runtime
