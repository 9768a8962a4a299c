#include "runtime/state_transfer.h"

#include <algorithm>

#include "common/check.h"
#include "common/serde.h"
#include "crypto/sha256.h"
#include "runtime/checkpoint_manager.h"
#include "runtime/replica_runtime.h"

namespace sbft::runtime {

// ---------------------------------------------------------------------------
// ChunkedSnapshot

ChunkedSnapshot::ChunkedSnapshot(ByteSpan envelope, uint32_t chunk_size)
    : chunk_size_(chunk_size), total_bytes_(envelope.size()) {
  SBFT_CHECK(!envelope.empty());
  SBFT_CHECK(chunk_size_ > 0);
  std::vector<Digest> leaves;
  leaves.reserve(envelope.size() / chunk_size_ + 1);
  for (size_t off = 0; off < envelope.size(); off += chunk_size_) {
    size_t len = std::min<size_t>(chunk_size_, envelope.size() - off);
    leaves.push_back(chunk_leaf(envelope.subspan(off, len)));
  }
  tree_ = std::make_unique<merkle::BlockMerkleTree>(std::move(leaves));
  transfer_root_ = make_transfer_root(tree_->root(), chunk_size_, chunk_count(),
                                      total_bytes_);
}

Digest ChunkedSnapshot::make_transfer_root(const Digest& tree_root,
                                           uint32_t chunk_size,
                                           uint32_t chunk_count,
                                           uint64_t total_bytes) {
  Writer w;
  w.str("sbft.state-transfer");
  w.digest(tree_root);
  w.u32(chunk_size);
  w.u32(chunk_count);
  w.u64(total_bytes);
  return crypto::sha256(as_span(w.data()));
}

ByteSpan ChunkedSnapshot::chunk(ByteSpan envelope, uint32_t index) const {
  SBFT_CHECK(envelope.size() == total_bytes_);
  SBFT_CHECK(index < chunk_count());
  size_t off = static_cast<size_t>(index) * chunk_size_;
  size_t len = std::min<size_t>(chunk_size_, envelope.size() - off);
  return envelope.subspan(off, len);
}

// ---------------------------------------------------------------------------
// Fetcher

void StateTransferManager::reset_fetch_state() {
  target_cert_ = ExecCertificate{};
  manifest_donor_ = 0;
  chunk_root_ = Digest{};
  transfer_root_ = Digest{};
  chunk_count_ = 0;
  target_chunk_size_ = 0;
  total_bytes_ = 0;
  chunks_.clear();
  received_ = 0;
  donors_.clear();
  seed_donors_.clear();
  strikes_.clear();
  struck_out_.clear();
  unplanned_.clear();
  outstanding_.clear();
  outstanding_by_donor_.clear();
  delivered_since_tick_.clear();
}

void StateTransferManager::retarget(const StateManifestMsg& m) {
  reset_fetch_state();
  target_cert_ = m.cert;
  manifest_donor_ = m.donor;
  chunk_root_ = m.chunk_root;
  transfer_root_ = ChunkedSnapshot::make_transfer_root(
      m.chunk_root, m.chunk_size, m.chunk_count, m.total_bytes);
  chunk_count_ = m.chunk_count;
  target_chunk_size_ = m.chunk_size;
  total_bytes_ = m.total_bytes;
  chunks_.assign(chunk_count_, Bytes{});
  for (uint32_t i = 0; i < chunk_count_; ++i) unplanned_.insert(unplanned_.end(), i);
  donors_.push_back(m.donor);
}

StateTransferRequestMsg StateTransferManager::make_probe(
    const CheckpointManager& cp, ReplicaId self, SeqNum last_executed) {
  active_ = true;
  probe_base_seq_ = 0;
  probe_base_root_ = Digest{};
  StateTransferRequestMsg req;
  req.requester = self;
  req.have_seq = last_executed;
  if (cp.has_shippable()) {
    const ChunkedSnapshot* base = donor_snapshot(cp);
    probe_base_seq_ = cp.snapshot_cert().seq;
    probe_base_root_ = base->transfer_root();
    req.base_seq = probe_base_seq_;
    req.base_root = probe_base_root_;
  }
  return req;
}

bool StateTransferManager::on_manifest(const StateManifestMsg& m,
                                       SeqNum last_executed,
                                       const CheckpointManager& cp,
                                       RuntimeStats& stats) {
  if (!active_ || m.seq <= last_executed) return false;
  if (excluded_.count(m.donor)) return false;
  // Geometry sanity: the chunk grid must tile total_bytes exactly.
  if (m.cert.seq != m.seq || m.chunk_size == 0 || m.chunk_count == 0 ||
      m.total_bytes == 0 || m.total_bytes > kMaxTotalBytes ||
      m.chunk_count > kMaxChunks) {
    return false;
  }
  uint64_t expect_count =
      (m.total_bytes + m.chunk_size - 1) / m.chunk_size;
  if (expect_count != m.chunk_count) return false;

  // Manifests name a *transfer*: the chunk tree root bound to its geometry.
  // Honest replicas derive identical envelopes (hence identical transfers)
  // for a given checkpoint, so two same-seq manifests naming different
  // transfers means one of them lied — about the root or about the grid.
  Digest incoming = ChunkedSnapshot::make_transfer_root(
      m.chunk_root, m.chunk_size, m.chunk_count, m.total_bytes);

  // Same seq, different transfer: first manifest wins while any of its
  // donors is still answering. But once every donor of the adopted transfer
  // is dead, excluded, or struck out, it is unobtainable — a live network
  // offering a different transfer for the same seq means the adopted
  // manifest was the lie. Drop it (excluding its sender) and let this
  // manifest re-target; without this, a Byzantine donor could wedge the
  // fetch forever by advertising a fabricated transfer and going silent.
  if (has_target() && m.seq == target_cert_.seq &&
      !(incoming == transfer_root_)) {
    // struck_out_, not strikes_: planning-time forgiveness must not erase
    // the evidence that the adopted transfer's donors are all unresponsive.
    bool donors_dead = true;
    for (ReplicaId d : donors_) {
      if (!struck_out_.count(d)) donors_dead = false;
    }
    if (!donors_dead) return false;
    manifest_failed();
    // manifest_failed may have just excluded this very sender (it seeded the
    // dropped target's delta): its conflicting manifest must not be the one
    // the fetch re-targets onto.
    if (excluded_.count(m.donor)) return false;
  }
  if (!has_target() || m.seq > target_cert_.seq) {
    retarget(m);
    // Delta manifest: seed the chunks the donor marked unchanged from the
    // local base snapshot before any wire fetch is planned. (Later
    // same-transfer manifests may seed the still-missing chunks too — see
    // the registration branch below.)
    seed_from_base(m, cp, stats);
    return true;
  }
  if (m.seq == target_cert_.seq && incoming == transfer_root_) {
    // Another replica holds the same transfer: register it as a donor — and
    // honour its delta section even mid-fetch. The adopted manifest may have
    // come from a donor without the base (full), while this one carries the
    // diff: same transfer root means the same chunk grid, so seeding the
    // still-missing unchanged chunks now is exactly as safe as at adoption.
    bool registered = false;
    if (std::find(donors_.begin(), donors_.end(), m.donor) == donors_.end()) {
      donors_.push_back(m.donor);
      registered = true;
    }
    uint32_t received_before = received_;
    seed_from_base(m, cp, stats);
    return registered || received_ > received_before;
  }
  return false;
}

void StateTransferManager::seed_from_base(const StateManifestMsg& m,
                                          const CheckpointManager& cp,
                                          RuntimeStats& stats) {
  if (m.base_seq == 0) return;
  // The delta must answer exactly the base this fetch advertised, and that
  // base must still be the locally retained shippable pair.
  if (m.base_seq != probe_base_seq_ || !cp.has_shippable() ||
      cp.snapshot_cert().seq != m.base_seq) {
    return;
  }
  const ChunkedSnapshot* base = donor_snapshot(cp);
  if (!(base->transfer_root() == probe_base_root_)) return;
  if (m.delta_bitmap.size() != (chunk_count_ + 7) / 8) return;
  // Walk the unset (unchanged) bits; base_map names the base chunk index
  // carrying identical bytes for each, in increasing target-index order.
  size_t map_pos = 0;
  uint64_t tail_size = total_bytes_ - uint64_t{chunk_count_ - 1} * target_chunk_size_;
  for (uint32_t i = 0; i < chunk_count_; ++i) {
    if (m.delta_bitmap[i / 8] & (1u << (i % 8))) continue;  // differs: fetch
    if (map_pos >= m.base_map.size()) return;  // malformed: fetch the rest
    uint32_t j = m.base_map[map_pos++];
    if (j >= base->chunk_count() || !chunks_[i].empty()) continue;
    ByteSpan src = base->chunk(as_span(cp.snapshot()), j);
    // A seeded chunk must be exactly the size its position implies; anything
    // else is a lying map — leave the index to the wire fetch.
    uint64_t want = i + 1 == chunk_count_ ? tail_size : target_chunk_size_;
    if (src.size() != want) continue;
    chunks_[i] = to_bytes(src);
    ++received_;
    unplanned_.erase(i);
    // Mid-fetch seeding (a later same-transfer delta manifest): the chunk
    // may already be outstanding at a donor — retire the request marks so
    // the retry tick neither re-plans it nor blames the donor for it.
    outstanding_.erase(i);
    for (auto& [donor, indices] : outstanding_by_donor_) indices.erase(i);
    seed_donors_.insert(m.donor);
    ++stats.delta_chunks_skipped;
    stats.delta_bytes_saved += src.size();
  }
}

StateTransferManager::ChunkVerdict StateTransferManager::on_chunk(
    const StateChunkMsg& m, RuntimeStats& stats) {
  // Messages match on the geometry-bound transfer key; the Merkle proof
  // below verifies against the tree root that key commits to.
  if (!has_target() || m.seq != target_cert_.seq ||
      !(m.chunk_root == transfer_root_)) {
    return ChunkVerdict::kRejected;
  }
  bool valid = m.index < chunk_count_ && m.chunk_count == chunk_count_ &&
               !m.data.empty() && m.data.size() <= target_chunk_size_ &&
               m.proof.index == m.index && m.proof.leaf_count == chunk_count_ &&
               merkle::BlockMerkleTree::verify(
                   chunk_root_, ChunkedSnapshot::chunk_leaf(as_span(m.data)),
                   m.proof);
  if (!valid) {
    ++stats.state_transfer_invalid_chunks;
    // An invalid chunk from the replica whose manifest we adopted makes the
    // whole target suspect (it authored the chunk root): exclude_donor drops
    // it so honest same-seq manifests can re-target on the next probe,
    // instead of waiting for a completion that may never come.
    exclude_donor(m.donor);
    return ChunkVerdict::kInvalid;
  }
  // A verified chunk proves the donor is alive and serving, even when it
  // loses a re-plan race and arrives as a duplicate — credit it before the
  // duplicate check so the retry tick never strikes an active donor, and
  // clear any strike history it accumulated while unreachable.
  delivered_since_tick_.insert(m.donor);
  strikes_.erase(m.donor);
  struck_out_.erase(m.donor);
  if (!chunks_[m.index].empty()) return ChunkVerdict::kDuplicate;
  chunks_[m.index] = m.data;
  ++received_;
  ++stats.state_transfer_chunks_fetched;
  stats.state_transfer_bytes_transferred += m.data.size();
  unplanned_.erase(m.index);
  outstanding_.erase(m.index);
  if (auto it = outstanding_by_donor_.find(m.donor);
      it != outstanding_by_donor_.end()) {
    it->second.erase(m.index);
  }
  return received_ == chunk_count_ ? ChunkVerdict::kCompleted
                                   : ChunkVerdict::kStored;
}

std::vector<std::pair<ReplicaId, StateChunkRequestMsg>>
StateTransferManager::plan_requests(ReplicaId self) {
  std::vector<std::pair<ReplicaId, StateChunkRequestMsg>> out;
  if (!has_target() || received_ == chunk_count_) return out;

  // Usable donors: not excluded (erased already), preferring ones that have
  // not struck out; if every donor struck out, forgive — the alternative is
  // giving up with partial data in hand.
  std::vector<ReplicaId> pool;
  for (ReplicaId d : donors_) {
    if (strikes_[d] < kStrikeLimit) pool.push_back(d);
  }
  if (pool.empty()) {
    strikes_.clear();
    pool = donors_;
  }
  if (pool.empty()) return out;

  std::map<ReplicaId, StateChunkRequestMsg> batch;
  size_t cursor = rotation_ % pool.size();
  for (auto it = unplanned_.begin(); it != unplanned_.end();) {
    uint32_t i = *it;
    // Round-robin over donors with capacity left this plan.
    ReplicaId donor = 0;
    for (size_t probe = 0; probe < pool.size(); ++probe) {
      ReplicaId cand = pool[(cursor + probe) % pool.size()];
      if (batch[cand].indices.size() < max_chunks_per_request_) {
        donor = cand;
        cursor = (cursor + probe + 1) % pool.size();
        break;
      }
    }
    if (donor == 0) break;  // every donor's batch is full; wait for arrivals
    StateChunkRequestMsg& req = batch[donor];
    if (req.indices.empty()) {
      req.requester = self;
      req.seq = target_cert_.seq;
      req.chunk_root = transfer_root_;
    }
    req.indices.push_back(i);
    it = unplanned_.erase(it);
    outstanding_.insert(i);
    outstanding_by_donor_[donor].insert(i);
  }
  for (auto& [donor, req] : batch) {
    if (!req.indices.empty()) out.emplace_back(donor, std::move(req));
  }
  return out;
}

bool StateTransferManager::on_retry(RuntimeStats& stats) {
  if (!active_) return false;
  // Strike donors that sat on outstanding requests without delivering, and
  // make everything they sat on plannable again.
  for (const auto& [donor, indices] : outstanding_by_donor_) {
    if (indices.empty() || delivered_since_tick_.count(donor)) continue;
    if (++strikes_[donor] >= kStrikeLimit) struck_out_.insert(donor);
  }
  for (uint32_t i : outstanding_) {
    if (chunks_.empty() || chunks_[i].empty()) unplanned_.insert(i);
  }
  outstanding_.clear();
  outstanding_by_donor_.clear();
  delivered_since_tick_.clear();
  ++rotation_;
  bool resuming = has_target() && received_ > 0 && received_ < chunk_count_;
  if (resuming) ++stats.state_transfer_resumes;
  return resuming;
}

StateTransferManager::RetryTick StateTransferManager::on_retry_tick(
    SeqNum last_executed, bool behind, RuntimeStats& stats) {
  // The fetch became moot: caught up to (or past) the target through the
  // ordering protocol, or no manifest yet and no demonstrable lag remains.
  if (has_target() && target_cert_.seq <= last_executed) finish();
  if (active_ && !has_target() && !behind) finish();
  if (!active_) return {/*stop=*/true, /*probe=*/false};
  on_retry(stats);
  // Re-broadcast the probe while no manifest was adopted, every donor went
  // bad, or every registered donor has struck out (all crashed/partitioned:
  // plan_requests will forgive and keep retrying them, but only a fresh
  // probe lets replicas that acquired the checkpoint since then register).
  // struck_out_ persists across planning-time forgiveness, so this decision
  // — like on_manifest's re-target — cannot be erased by a re-plan.
  bool all_struck = !donors_.empty();
  for (ReplicaId d : donors_) {
    if (!struck_out_.count(d)) all_struck = false;
  }
  return {/*stop=*/false,
          /*probe=*/!has_target() || donors_.empty() || all_struck};
}

Bytes StateTransferManager::take_envelope() {
  SBFT_CHECK(has_target() && received_ == chunk_count_);
  Bytes envelope;
  envelope.reserve(total_bytes_);
  for (const Bytes& c : chunks_) {
    envelope.insert(envelope.end(), c.begin(), c.end());
  }
  return envelope;
}

bool StateTransferManager::on_adopt_result(bool adopted, SeqNum last_executed) {
  if (adopted) {
    finish();
    return false;
  }
  if (target_cert_.seq <= last_executed) {
    // Became stale while fetching (the replica caught up through the
    // ordering protocol); nothing went wrong — the retry timer lapses.
    finish();
    return false;
  }
  // The assembled envelope failed the certified state-root check: the
  // manifest sender lied. Exclude it and re-probe from the survivors.
  manifest_failed();
  return true;
}

void StateTransferManager::exclude_donor(ReplicaId donor) {
  excluded_.insert(donor);
  donors_.erase(std::remove(donors_.begin(), donors_.end(), donor), donors_.end());
  // Everything outstanding at the bad donor becomes re-plannable right now.
  if (auto it = outstanding_by_donor_.find(donor);
      it != outstanding_by_donor_.end()) {
    for (uint32_t i : it->second) {
      outstanding_.erase(i);
      if (!chunks_.empty() && chunks_[i].empty()) unplanned_.insert(i);
    }
    outstanding_by_donor_.erase(it);
  }
  if (donor == manifest_donor_ && has_target()) manifest_failed();
}

void StateTransferManager::manifest_failed() {
  excluded_.insert(manifest_donor_);
  // Seeded chunks are unverified until the final state-root check, so a
  // failure can stem from a lying delta section as much as from a lying
  // chunk root — exclude every donor whose delta seeded this target too.
  // When seeder != adopter one honest donor may fall with the liar for this
  // fetch, but the liar always falls: each failed round removes it, so the
  // fetch converges onto honest full/delta manifests instead of wedging.
  for (ReplicaId d : seed_donors_) excluded_.insert(d);
  reset_fetch_state();
  // Stays active (and excluded_ is kept): the caller re-probes and the fetch
  // restarts against the remaining replicas.
}

void StateTransferManager::finish() {
  active_ = false;
  reset_fetch_state();
  excluded_.clear();
  rotation_ = 0;
}

// ---------------------------------------------------------------------------
// Donor

const ChunkedSnapshot* StateTransferManager::donor_snapshot(
    const CheckpointManager& cp) {
  if (!cp.has_shippable()) return nullptr;
  if (donor_seq_ != cp.snapshot_cert().seq || !donor_chunks_) {
    // Retire the outgoing pair's chunk hashes into the delta-base history (a
    // fetcher briefly behind will advertise exactly that checkpoint).
    if (donor_chunks_ && donor_seq_ > 0) {
      DonorBaseRecord rec;
      rec.transfer_root = donor_chunks_->transfer_root();
      rec.leaves = donor_chunks_->leaf_hashes();
      rec.chunk_size = donor_chunks_->chunk_size();
      donor_history_[donor_seq_] = std::move(rec);
      while (donor_history_.size() > delta_history_) {
        donor_history_.erase(donor_history_.begin());
      }
    }
    donor_chunks_ =
        std::make_unique<ChunkedSnapshot>(as_span(cp.snapshot()), chunk_size_);
    donor_seq_ = cp.snapshot_cert().seq;
  }
  return donor_chunks_.get();
}

bool StateTransferManager::note_checkpoint(const CheckpointManager& cp) {
  // Eager sealing buys the delta-base history: the outgoing pair's chunk
  // hashes retire into it before the next pair replaces the cache.
  if (!cp.has_shippable()) return false;
  if (donor_seq_ == cp.snapshot_cert().seq && donor_chunks_) return false;
  donor_snapshot(cp);
  return true;
}

std::optional<StateManifestMsg> StateTransferManager::make_manifest(
    const CheckpointManager& cp, const StateTransferRequestMsg& probe,
    ReplicaId self) {
  if (!cp.has_shippable() || cp.snapshot_cert().seq <= probe.have_seq) {
    return std::nullopt;
  }
  const ChunkedSnapshot* snap = donor_snapshot(cp);
  StateManifestMsg m;
  m.donor = self;
  m.seq = cp.snapshot_cert().seq;
  m.cert = cp.snapshot_cert();
  m.chunk_root = snap->chunk_root();
  m.chunk_count = snap->chunk_count();
  m.chunk_size = snap->chunk_size();
  m.total_bytes = snap->total_bytes();

  // Delta section: only when the probe's base is a retired pair whose chunk
  // hashes are still held, under the identical transfer identity the fetcher
  // computed locally (root mismatch means different bytes — e.g. the fetcher's
  // disk rotted — and silently diffing would waste its round).
  if (probe.base_seq == 0 || probe.base_seq >= m.seq) return m;
  auto it = donor_history_.find(probe.base_seq);
  if (it == donor_history_.end() ||
      !(it->second.transfer_root == probe.base_root) ||
      it->second.chunk_size != chunk_size_) {
    return m;  // unknown base: full manifest
  }
  // The diff is a pure function of (base checkpoint, current pair): memoize
  // it so the retry probes a still-behind fetcher re-broadcasts every tick
  // don't re-walk every chunk hash per donor.
  if (diff_base_seq_ != probe.base_seq || diff_target_seq_ != donor_seq_) {
    diff_base_seq_ = probe.base_seq;
    diff_target_seq_ = donor_seq_;
    diff_bitmap_.assign((snap->chunk_count() + 7) / 8, 0);
    diff_base_map_.clear();
    // Content-addressed diff: a target chunk is unchanged if *any* base
    // chunk holds identical bytes (same leaf hash), so runs that shifted by
    // whole chunks still seed. Prefer the same index when available.
    const std::vector<Digest>& base_leaves = it->second.leaves;
    std::map<Digest, uint32_t> base_by_hash;
    for (uint32_t j = 0; j < base_leaves.size(); ++j) {
      base_by_hash.emplace(base_leaves[j], j);
    }
    const std::vector<Digest>& target_leaves = snap->leaf_hashes();
    for (uint32_t i = 0; i < snap->chunk_count(); ++i) {
      std::optional<uint32_t> j;
      if (i < base_leaves.size() && base_leaves[i] == target_leaves[i]) {
        j = i;
      } else if (auto hit = base_by_hash.find(target_leaves[i]);
                 hit != base_by_hash.end()) {
        j = hit->second;
      }
      if (j) {
        diff_base_map_.push_back(*j);
      } else {
        diff_bitmap_[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
      }
    }
  }
  if (diff_base_map_.empty()) return m;  // degenerate delta: full manifest
  m.base_seq = probe.base_seq;
  m.delta_bitmap = diff_bitmap_;
  m.base_map = diff_base_map_;
  return m;
}

std::vector<StateChunkMsg> StateTransferManager::make_chunks(
    const CheckpointManager& cp, const StateChunkRequestMsg& req, ReplicaId self,
    RuntimeStats& stats, NodeId requester_node) {
  std::vector<StateChunkMsg> out;
  if (!cp.has_shippable() || cp.snapshot_cert().seq != req.seq) {
    return out;  // checkpoint advanced past the request: fetcher re-probes
  }
  const ChunkedSnapshot* snap = donor_snapshot(cp);
  // Match on the geometry-bound transfer key: a request for a transfer this
  // donor does not recognize (e.g. forged geometry over the honest root) is
  // ignored, so an honest donor can never be blamed for a liar's manifest.
  if (!(snap->transfer_root() == req.chunk_root)) return out;
  size_t limit = std::min<size_t>(req.indices.size(), max_chunks_per_request_);
  std::vector<uint32_t> deferred;
  for (size_t i = 0; i < limit; ++i) {
    uint32_t index = req.indices[i];
    if (index >= snap->chunk_count()) continue;
    if (donor_chunks_per_tick_ > 0 &&
        donor_served_this_tick_ >= donor_chunks_per_tick_) {
      // Rate limit hit: the remainder is re-served on the donor tick, never
      // silently dropped (the fetcher would strike this donor for sitting on
      // a request it never refused).
      deferred.push_back(index);
      continue;
    }
    ++donor_served_this_tick_;
    StateChunkMsg m;
    m.donor = self;
    m.seq = req.seq;
    m.chunk_root = snap->transfer_root();
    m.index = index;
    m.chunk_count = snap->chunk_count();
    m.data = to_bytes(snap->chunk(as_span(cp.snapshot()), index));
    m.proof = snap->proof(index);
    // Bytes are counted fetcher-side only (on verified store), so summing
    // the counter across a cluster yields the snapshot size once — not
    // once per role, and not inflated by dropped or duplicate serves.
    ++stats.state_transfer_chunks_served;
    out.push_back(std::move(m));
  }
  if (!deferred.empty()) {
    // Dedup against what this requester already has queued for the same
    // transfer (its retry ticks re-request chunks the limiter is still
    // sitting on), and bound the queue — overflow falls back to the
    // fetcher's retry rather than growing the donor's memory under the very
    // overload the limiter exists to bound.
    std::set<uint32_t> queued;
    size_t queue_total = 0;
    for (const DeferredRequest& q : donor_deferred_) {
      queue_total += q.req.indices.size();
      if (q.req.requester == req.requester && q.req.seq == req.seq &&
          q.req.chunk_root == req.chunk_root) {
        queued.insert(q.req.indices.begin(), q.req.indices.end());
      }
    }
    StateChunkRequestMsg rest = req;
    rest.indices.clear();
    for (uint32_t index : deferred) {
      if (!queued.count(index)) rest.indices.push_back(index);
    }
    if (!rest.indices.empty()) {
      // Overflow drops are counted too — an operator watching the throttle
      // counter must see the load the limiter turned away, not only the part
      // it could queue.
      stats.donor_chunks_throttled += rest.indices.size();
      if (queue_total < kMaxDeferredChunks) {
        donor_deferred_.push_back({requester_node, std::move(rest)});
      }
    }
  }
  return out;
}

std::vector<std::pair<NodeId, StateChunkMsg>>
StateTransferManager::on_donor_tick(const CheckpointManager& cp, ReplicaId self,
                                    RuntimeStats& stats) {
  donor_served_this_tick_ = 0;
  std::vector<DeferredRequest> pending = std::move(donor_deferred_);
  donor_deferred_.clear();
  std::vector<std::pair<NodeId, StateChunkMsg>> out;
  for (DeferredRequest& d : pending) {
    // make_chunks re-validates against the now-current shippable pair (stale
    // deferred requests fall out; the fetcher's retry tick covers them) and
    // re-defers whatever exceeds this tick's budget.
    for (StateChunkMsg& c : make_chunks(cp, d.req, self, stats, d.node)) {
      out.emplace_back(d.node, std::move(c));
    }
  }
  return out;
}

}  // namespace sbft::runtime
