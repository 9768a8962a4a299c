#include "harness/audit.h"

#include <algorithm>

#include "common/bytes.h"

namespace sbft::harness {

std::vector<std::string> audit_state_convergence(
    const std::vector<ReplicaStateView>& views) {
  std::vector<std::string> violations;

  SeqNum max_stable = 0;
  for (const ReplicaStateView& v : views) {
    if (v.member) max_stable = std::max(max_stable, v.stable);
  }

  for (const ReplicaStateView& v : views) {
    if (!v.live || !v.member || v.silent) continue;
    if (v.executed < max_stable) {
      violations.push_back(
          "convergence: replica " + std::to_string(v.id) + " executed only " +
          std::to_string(v.executed) + " but the cluster's stable frontier is " +
          std::to_string(max_stable));
    }
  }

  for (size_t i = 0; i < views.size(); ++i) {
    const ReplicaStateView& a = views[i];
    if (!a.live || !a.member || a.executed == 0) continue;
    for (size_t j = i + 1; j < views.size(); ++j) {
      const ReplicaStateView& b = views[j];
      if (!b.live || !b.member || b.executed != a.executed) continue;
      if (!(a.state_root == b.state_root)) {
        violations.push_back(
            "convergence: replicas " + std::to_string(a.id) + " and " +
            std::to_string(b.id) + " both executed up to " +
            std::to_string(a.executed) + " but hold different state roots");
      }
    }
  }
  return violations;
}

std::vector<std::string> audit_reply_caches(
    const std::vector<std::pair<ReplicaId, const runtime::ReplyCache*>>&
        caches) {
  std::vector<std::string> violations;
  for (size_t i = 0; i < caches.size(); ++i) {
    const auto& [ra, ca] = caches[i];
    if (ca == nullptr) continue;
    for (size_t j = i + 1; j < caches.size(); ++j) {
      const auto& [rb, cb] = caches[j];
      if (cb == nullptr) continue;
      for (const auto& [client, ea] : ca->entries()) {
        const runtime::CachedReply* eb = cb->find(client);
        if (eb == nullptr) continue;
        if (ea.timestamp == eb->timestamp) {
          if (ea.seq != eb->seq || ea.value != eb->value) {
            violations.push_back(
                "reply-cache: client " + std::to_string(client) +
                " timestamp " + std::to_string(ea.timestamp) + ": replica " +
                std::to_string(ra) + " cached (seq " + std::to_string(ea.seq) +
                ") but replica " + std::to_string(rb) + " cached (seq " +
                std::to_string(eb->seq) + ") with " +
                (ea.value != eb->value ? "different" : "equal") + " values");
          }
        } else {
          // Timestamps are client-monotone and execute in order, so the
          // newer timestamp must sit at the same or a later sequence.
          const auto& newer = ea.timestamp > eb->timestamp ? ea : *eb;
          const auto& older = ea.timestamp > eb->timestamp ? *eb : ea;
          if (newer.seq < older.seq) {
            violations.push_back(
                "reply-cache: client " + std::to_string(client) +
                " timestamp " + std::to_string(newer.timestamp) +
                " executed at seq " + std::to_string(newer.seq) +
                " before timestamp " + std::to_string(older.timestamp) +
                " at seq " + std::to_string(older.seq) +
                " (ordering inverted between replicas " + std::to_string(ra) +
                " and " + std::to_string(rb) + ")");
          }
        }
      }
    }
  }
  return violations;
}

}  // namespace sbft::harness
