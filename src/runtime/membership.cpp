#include "runtime/membership.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/serde.h"

namespace sbft::runtime {

int MembershipEpoch::rank_of(ReplicaId r) const {
  // Binary search: PBFT checks every vote's claimed id against the roster.
  auto it = std::lower_bound(
      members.begin(), members.end(), r,
      [](const ReplicaInfo& m, ReplicaId id) { return m.id < id; });
  if (it == members.end() || it->id != r) return -1;
  return static_cast<int>(it - members.begin());
}

NodeId MembershipEpoch::node_of(ReplicaId r) const {
  int rank = rank_of(r);
  SBFT_CHECK(rank >= 0);
  return members[static_cast<size_t>(rank)].node;
}

void MembershipManager::init_genesis(uint32_t f, uint32_t c,
                                     std::vector<ReplicaInfo> members) {
  SBFT_CHECK(epochs_.empty());
  SBFT_CHECK(!members.empty());
  std::sort(members.begin(), members.end(),
            [](const ReplicaInfo& a, const ReplicaInfo& b) { return a.id < b.id; });
  MembershipEpoch genesis;
  genesis.epoch = 0;
  genesis.f = f;
  genesis.c = c;
  genesis.activated_at = 0;
  genesis.members = std::move(members);
  epochs_.push_back(std::move(genesis));
}

const MembershipEpoch& MembershipManager::epoch_for_seq(SeqNum s) const {
  SBFT_CHECK(configured());
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    if (it->activated_at < s) return *it;
  }
  return epochs_.front();
}

bool MembershipManager::stage(const ReconfigDelta& delta, SeqNum exec_seq,
                              uint64_t interval) {
  if (!configured() || pending_) return false;
  if (delta.adds.empty() && delta.removes.empty()) return false;
  if (delta.new_f < 1) return false;

  // Compute the candidate roster and reject inconsistent deltas.
  const MembershipEpoch& cur = active();
  std::vector<ReplicaInfo> next = cur.members;
  std::set<ReplicaId> removes(delta.removes.begin(), delta.removes.end());
  if (removes.size() != delta.removes.size()) return false;
  for (ReplicaId r : removes) {
    if (!cur.contains(r)) return false;
  }
  next.erase(std::remove_if(next.begin(), next.end(),
                            [&](const ReplicaInfo& m) { return removes.count(m.id); }),
             next.end());
  for (const ReplicaInfo& add : delta.adds) {
    if (add.id == 0 || cur.contains(add.id) || removes.count(add.id)) return false;
    for (const ReplicaInfo& m : next) {
      if (m.id == add.id || m.node == add.node) return false;
    }
    next.push_back(add);
  }
  // The cluster sizing law must hold exactly — anything else silently skews
  // quorum intersection (e.g. 6 replicas with 2f+1 = 3 quorums can split).
  if (next.size() != 3ull * delta.new_f + 2ull * delta.new_c + 1) return false;

  PendingReconfig pending;
  pending.delta = delta;
  pending.target_epoch = cur.epoch + 1;
  // First checkpoint boundary at or after the ordering position; with
  // checkpoints disabled the delta can never activate — refuse it.
  if (interval == 0) return false;
  pending.activation_seq = (exec_seq + interval - 1) / interval * interval;
  pending_ = std::move(pending);
  return true;
}

bool MembershipManager::activate_up_to(SeqNum stable_seq) {
  if (!pending_ || stable_seq < pending_->activation_seq) return false;
  const MembershipEpoch& cur = active();
  MembershipEpoch next;
  next.epoch = pending_->target_epoch;
  next.f = pending_->delta.new_f;
  next.c = pending_->delta.new_c;
  next.activated_at = pending_->activation_seq;
  next.members = cur.members;
  std::set<ReplicaId> removes(pending_->delta.removes.begin(),
                              pending_->delta.removes.end());
  next.members.erase(
      std::remove_if(next.members.begin(), next.members.end(),
                     [&](const ReplicaInfo& m) { return removes.count(m.id); }),
      next.members.end());
  for (const ReplicaInfo& add : pending_->delta.adds) next.members.push_back(add);
  std::sort(next.members.begin(), next.members.end(),
            [](const ReplicaInfo& a, const ReplicaInfo& b) { return a.id < b.id; });
  // A locally staged delta passed stage()'s validation, but a pending may
  // also arrive via restore() from an unauthenticated envelope section —
  // never activate an epoch that breaks the sizing law.
  if (!epoch_well_formed(next)) {
    pending_.reset();
    return false;
  }
  epochs_.push_back(std::move(next));
  pending_.reset();
  return true;
}

bool MembershipManager::epoch_well_formed(const MembershipEpoch& e) {
  if (e.f < 1) return false;
  if (e.members.size() != 3ull * e.f + 2ull * e.c + 1) return false;
  for (size_t i = 0; i + 1 < e.members.size(); ++i) {  // id-sorted, unique
    if (e.members[i].id >= e.members[i + 1].id) return false;
  }
  return true;
}

namespace {
constexpr uint32_t kSectionMagic = 0x4d425253;  // "SRBM"
constexpr uint16_t kSectionVersion = 1;

void put_epoch(Writer& w, const MembershipEpoch& e) {
  w.u64(e.epoch);
  w.u32(e.f);
  w.u32(e.c);
  w.u64(e.activated_at);
  w.u32(static_cast<uint32_t>(e.members.size()));
  for (const ReplicaInfo& m : e.members) {
    w.u32(m.id);
    w.u32(m.node);
  }
}

std::optional<MembershipEpoch> get_epoch(Reader& r) {
  MembershipEpoch e;
  e.epoch = r.u64();
  e.f = r.u32();
  e.c = r.u32();
  e.activated_at = r.u64();
  uint32_t n = r.u32();
  if (!r.ok() || n == 0 || n > 100'000) return std::nullopt;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ReplicaInfo m;
    m.id = r.u32();
    m.node = r.u32();
    e.members.push_back(m);
  }
  if (!r.ok()) return std::nullopt;
  return e;
}
}  // namespace

Bytes MembershipManager::encode() const {
  if (!configured()) return {};
  Writer w;
  w.u32(kSectionMagic);
  w.u16(kSectionVersion);
  put_epoch(w, active());
  w.boolean(pending_.has_value());
  if (pending_) {
    w.bytes(as_span(encode_reconfig_delta(pending_->delta)));
    w.u64(pending_->activation_seq);
    w.u64(pending_->target_epoch);
  }
  return std::move(w).take();
}

bool MembershipManager::restore(ByteSpan section) {
  if (section.empty()) return false;
  Reader r(section);
  if (r.u32() != kSectionMagic || r.u16() != kSectionVersion) return false;
  auto epoch = get_epoch(r);
  if (!epoch) return false;
  std::optional<PendingReconfig> pending;
  if (r.boolean()) {
    auto delta = decode_reconfig_delta(as_span(r.bytes()));
    if (!delta) return false;
    PendingReconfig p;
    p.delta = std::move(*delta);
    p.activation_seq = r.u64();
    p.target_epoch = r.u64();
    pending = std::move(p);
  }
  if (!r.at_end()) return false;
  // Never regress: state transfer can only move membership forward.
  if (configured() && epoch->epoch < active().epoch) return false;
  if (configured() && epoch->epoch == active().epoch) {
    // Same epoch; adopt the staged reconfiguration if we lack it (a fetched
    // checkpoint captured after the marker executed but before activation).
    if (pending && !pending_) pending_ = std::move(pending);
    return pending_.has_value();
  }
  if (!configured() || epoch->epoch > active().epoch) {
    std::sort(epoch->members.begin(), epoch->members.end(),
              [](const ReplicaInfo& a, const ReplicaInfo& b) { return a.id < b.id; });
    // The membership section is not covered by the state root (tail-section
    // trust model): a forged epoch whose f/c break the sizing law would skew
    // or wedge every quorum — re-validate what stage() would have enforced.
    if (!epoch_well_formed(*epoch)) return false;
    epochs_.push_back(std::move(*epoch));
    pending_ = std::move(pending);
  }
  return true;
}

}  // namespace sbft::runtime
