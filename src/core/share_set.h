// The threshold-signature shares a collector holds for one proof over one
// signed digest (§V-B). Every collector of a slot holds one share per replica
// for each proof, and the c+1 redundant collectors of §V-E multiply that, so
// the set is kept flat: the replica ids in ascending order, and their shares
// in a `ByteList` — no allocation per share.
#pragma once

#include <algorithm>
#include <vector>

#include "common/bytes.h"
#include "proto/types.h"

namespace sbft::core {

/// Shares keyed by replica, in replica order. The first share a replica
/// gives wins; every share keeps its own length (Shoup RSA shares vary, and
/// a Byzantine share of the wrong length still counts until the combine
/// rejects it).
class ShareSet {
 public:
  /// Adds `share` from `replica` unless the set already holds one from it;
  /// returns whether it was added.
  bool add(ReplicaId replica, ByteSpan share) {
    auto pos = std::lower_bound(replicas_.begin(), replicas_.end(), replica);
    if (pos != replicas_.end() && *pos == replica) return false;
    shares_.insert(static_cast<size_t>(pos - replicas_.begin()), share);
    replicas_.insert(pos, replica);
    return true;
  }
  /// Number of replicas with a share.
  size_t size() const { return replicas_.size(); }
  /// The i-th replica in ascending order, and its share (a view valid
  /// until the next add).
  ReplicaId replica(size_t i) const { return replicas_[i]; }
  ByteSpan share(size_t i) const { return shares_[i]; }

 private:
  std::vector<ReplicaId> replicas_;
  ByteList shares_;  // shares_[i]: the share of replicas_[i]
};

}  // namespace sbft::core
