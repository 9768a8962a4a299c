#include "runtime/replica_runtime.h"

#include <algorithm>

#include "common/check.h"
#include "crypto/sha256.h"
#include "merkle/merkle_tree.h"

namespace sbft::runtime {

ReplicaRuntime::ReplicaRuntime(RuntimeOptions options,
                               std::unique_ptr<IService> service)
    : opts_(std::move(options)),
      trace_(opts_.tracer ? *opts_.tracer : obs::Tracer::nop()),
      service_(std::move(service)),
      checkpoints_(opts_.checkpoint_interval),
      state_transfer_(opts_.state_transfer_chunk_size) {
  // Every service instance this runtime ever executes on carries the same
  // chunk hint, so snapshot bytes are identical across replicas (the delta
  // path compares them chunk-for-chunk).
  service_->set_snapshot_chunk_hint(opts_.state_transfer_chunk_size);
  exec_digests_[0] = genesis_exec_digest();
  if (!opts_.bootstrap_members.empty()) {
    membership_.init_genesis(opts_.membership_f, opts_.membership_c,
                             opts_.bootstrap_members);
  }
}

void ReplicaRuntime::note_membership_change(bool was_member, sim::SimTime now) {
  ++stats_.epochs_activated;
  epoch_changed_ = true;
  uint64_t epoch = membership_.active().epoch;
  trace_.instant(now, obs::Category::kReconfig, obs::ev::kEpochActivated, 0, 0,
                 0, "epoch", epoch);
  if (!was_member && membership_.is_member(opts_.self)) {
    ++stats_.joins_completed;
    trace_.instant(now, obs::Category::kReconfig, obs::ev::kEpochJoined, 0, 0,
                   0, "epoch", epoch);
  }
}

std::optional<RecoveredProtocolState> ReplicaRuntime::recover() {
  recovery::WalState wal = opts_.wal ? opts_.wal->load() : recovery::WalState{};
  SeqNum ledger_last = opts_.ledger ? opts_.ledger->last_seq() : 0;
  if (wal.empty() && ledger_last == 0) return std::nullopt;  // fresh boot

  // 1. The stable checkpoint, if any. The sections are views into the WAL's
  // envelope, which wal.snapshot holds until adopt takes the pointer.
  if (wal.last_stable > 0) {
    auto sections =
        install_checkpoint_service(as_span(*wal.snapshot), wal.checkpoint.state_root);
    if (!sections) return std::nullopt;
    replies_ = std::move(sections->replies);
    // Membership as of the checkpoint (anything staged there and already past
    // its boundary activated before the crash) replaces the bootstrap roster;
    // a pre-membership log keeps the bootstrap roster.
    MembershipManager restored;
    restored.restore(sections->membership);
    restored.activate_up_to(wal.last_stable);
    if (restored.configured()) {
      membership_ = std::move(restored);
      epoch_changed_ = membership_.active().epoch > 0;
    }
    if (opts_.marker_executor != nullptr) {
      opts_.marker_executor->restore(sections->marker);
    }
    le_ = wal.last_stable;
    exec_digests_[le_] = wal.checkpoint.exec_digest();
    checkpoints_.adopt(wal.checkpoint, std::move(wal.snapshot));
  } else if (opts_.marker_executor != nullptr) {
    // No checkpoint: the executor's pre-crash state was volatile; replay
    // rebuilds it from the ledger.
    opts_.marker_executor->restore({});
  }

  // 2. Replay the contiguous ledger suffix. Blocks are persisted at execution
  // time, so the ledger extends exactly to the pre-crash last-executed
  // sequence (modulo a torn tail, which the ledger already truncated away);
  // a gap ends the usable suffix. The cost model only prices the tally,
  // which replay ignores.
  RecoveredProtocolState out;
  const sim::CostModel unpriced;
  for (SeqNum s = le_ + 1; s <= ledger_last; ++s) {
    auto encoded = opts_.ledger->read_block(s);
    if (!encoded) break;
    auto msg = decode_message(as_span(*encoded));
    if (!msg || !std::holds_alternative<PrePrepareMsg>(*msg)) break;
    const auto& pp = std::get<PrePrepareMsg>(*msg);
    BlockTally ignored;
    apply_block(s, pp.view, pp.block, unpriced, ignored);
    out.replayed_bytes += encoded->size();
    ++stats_.blocks_replayed;
  }

  // 3. The view and the votes for slots still in flight.
  out.view = wal.view;
  for (const recovery::WalVote& v : wal.votes) {
    if (v.seq > le_) out.votes.push_back(v);
  }
  std::sort(out.votes.begin(), out.votes.end(),
            [](const recovery::WalVote& a, const recovery::WalVote& b) {
              return a.seq != b.seq ? a.seq < b.seq : a.view < b.view;
            });
  stats_.recoveries = 1;
  if (opts_.wal) stats_.wal_bytes_written = opts_.wal->bytes_written();
  return out;
}

// ---------------------------------------------------------------------------
// Execution pipeline

ExecutionRecord& ReplicaRuntime::execute_block(SeqNum s, ViewNum pp_view,
                                               const SealedBlock& block,
                                               sim::ActorContext& ctx) {
  BlockTally tally;
  ExecutionRecord& rec = apply_block(s, pp_view, block, ctx.costs(), tally);
  stats_.requests_executed += tally.requests_executed;
  stats_.reply_cache_hits += tally.cache_hits;
  ++stats_.blocks_executed;

  // Persist the decision block (§IX: transactions persist to disk).
  ctx.charge(tally.exec_cost_us + ctx.costs().persist_us(rec.block.wire_size()));
  if (opts_.ledger) {
    opts_.ledger->append_block(s, rec.block.ledger_record(s, pp_view));
  }
  trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kExecute, s, s,
                 pp_view, "digest", obs::digest_prefix(exec_digests_[s].data()));
  // The checkpoint snapshot is charged as a bulk hash.
  if (tally.snapshot_bytes > 0) {
    ctx.charge(ctx.costs().hash_us(tally.snapshot_bytes));
    trace_.instant(ctx.now(), obs::Category::kCheckpoint,
                   obs::ev::kCheckpointCaptured, 0, s);
  }
  rec.executed_at = ctx.now();
  return rec;
}

ExecutionRecord& ReplicaRuntime::apply_block(SeqNum s, ViewNum pp_view,
                                             const SealedBlock& block,
                                             const sim::CostModel& costs,
                                             BlockTally& tally) {
  SBFT_CHECK(s == le_ + 1);
  ExecutionRecord rec;
  rec.block = block;
  rec.pp_view = pp_view;
  const size_t requests = rec.block.requests().size();
  rec.leaves.reserve(requests);
  rec.values.reserve(requests);
  for (size_t l = 0; l < requests; ++l) {
    const Request& req = rec.block.requests()[l];
    Bytes value;
    if (auto delta = decode_reconfig_request(req)) {
      // Reconfiguration marker: staged in the membership manager instead of
      // executed on the service (the service state — and therefore the
      // certified state root — is never touched by membership changes). The
      // outcome is deterministic, so every replica stages or rejects alike.
      bool staged = membership_.stage(*delta, s, opts_.checkpoint_interval);
      value = to_bytes(staged ? "RECONF" : "RECONF-REJECTED");
    } else if (req.client == kReconfigClient) {
      // Reserved client id without a valid marker payload: deterministic
      // no-op (defense in depth; engines already refuse client-0 requests
      // from the network).
      value = to_bytes("RECONF-REJECTED");
    } else if (req.client == kShardTxClient) {
      // Cross-shard decision marker: txids are unique but not monotone, so
      // the reply cache never sees this client — the executor dedups by txid
      // (docs/sharding.md). Without an executor the reserved id is a
      // deterministic no-op, mirroring the kReconfigClient defense.
      if (opts_.marker_executor != nullptr &&
          opts_.marker_executor->claims(req)) {
        value = opts_.marker_executor->execute_marker(req, s, *service_);
        tally.exec_cost_us += opts_.marker_executor->last_execute_cost_us(costs);
        ++tally.requests_executed;
      } else {
        value = to_bytes("TX-REJECTED");
      }
    } else if (const CachedReply* cached = replies_.find(req.client);
               cached != nullptr && req.timestamp <= cached->timestamp) {
      value = cached->value;  // duplicate: executed exactly once
      ++tally.cache_hits;
    } else if (opts_.marker_executor != nullptr &&
               opts_.marker_executor->claims(req)) {
      // Transaction Prepare from a real client: executed by the marker
      // executor (lock/validate, never the service), but cached like any
      // client request so retries are served without re-locking.
      value = opts_.marker_executor->execute_marker(req, s, *service_);
      tally.exec_cost_us += opts_.marker_executor->last_execute_cost_us(costs);
      replies_.store(req.client, req.timestamp, s, l, value);
      ++tally.requests_executed;
    } else {
      value = service_->execute(as_span(req.op));
      tally.exec_cost_us += service_->last_execute_cost_us(costs);
      replies_.store(req.client, req.timestamp, s, l, value);
      ++tally.requests_executed;
    }
    rec.leaves.push_back(
        exec_leaf(req.client, req.timestamp, crypto::sha256(as_span(value))));
    rec.values.push_back(as_span(value));
  }
  rec.values.shrink_to_fit();

  ExecCertificate cert;
  cert.seq = s;
  cert.state_root = service_->state_digest();
  cert.ops_root = rec.leaves.empty() ? empty_ops_root()
                                     : merkle::BlockMerkleTree(rec.leaves).root();
  cert.prev_exec_digest = exec_digests_[s - 1];
  exec_digests_[s] = cert.exec_digest();
  rec.cert = cert;
  le_ = s;

  // Capture the checkpoint snapshot while the service state still equals the
  // state the certificate describes; the reply cache rides along so recovery
  // suppresses pre-checkpoint duplicates.
  if (opts_.checkpoint_interval > 0 && s % opts_.checkpoint_interval == 0) {
    auto envelope = snapshot_envelope();
    tally.snapshot_bytes = envelope->size();
    checkpoints_.capture_pending(s, std::move(envelope));
  }

  auto [it, inserted] = records_.emplace(s, std::move(rec));
  SBFT_CHECK(inserted);
  return it->second;
}

std::optional<Digest> ReplicaRuntime::exec_digest_of(SeqNum s) const {
  auto it = exec_digests_.find(s);
  if (it == exec_digests_.end()) return std::nullopt;
  return it->second;
}

ExecutionRecord* ReplicaRuntime::record(SeqNum s) {
  auto it = records_.find(s);
  return it == records_.end() ? nullptr : &it->second;
}

const ExecutionRecord* ReplicaRuntime::record(SeqNum s) const {
  auto it = records_.find(s);
  return it == records_.end() ? nullptr : &it->second;
}

const CachedReply* ReplicaRuntime::cached_reply(ClientId client,
                                                uint64_t timestamp) {
  const CachedReply* cached = replies_.find(client);
  if (cached == nullptr || timestamp > cached->timestamp) return nullptr;
  ++stats_.reply_cache_hits;
  return cached;
}

// ---------------------------------------------------------------------------
// Checkpoints

bool ReplicaRuntime::advance_stable(ExecCertificate cert, sim::ActorContext& ctx) {
  if (opts_.checkpoint_interval == 0) return false;
  if (cert.seq <= checkpoints_.last_stable() ||
      cert.seq % opts_.checkpoint_interval != 0)
    return false;
  bool recorded = checkpoints_.make_stable(cert, le_, [&] {
    auto envelope = snapshot_envelope();
    ctx.charge(ctx.costs().hash_us(envelope->size()));
    return envelope;
  });
  if (recorded) {
    trace_.instant(ctx.now(), obs::Category::kCheckpoint,
                   obs::ev::kCheckpointStable, 0, cert.seq, 0, "digest",
                   obs::digest_prefix(cert.state_root.data()));
    wal_record_checkpoint();
    // Seal the pair into the donor chunk cache now (retiring the previous
    // pair's chunk hashes as a delta base); the rebuild hashes the envelope.
    if (state_transfer_.note_checkpoint(checkpoints_)) {
      ctx.charge(ctx.costs().hash_us(checkpoints_.snapshot().size()));
    }
  }
  // Keep the checkpointed record itself (serves acks/fetches for stragglers).
  records_.erase(records_.begin(),
                 records_.lower_bound(checkpoints_.last_stable()));
  // A staged reconfiguration takes effect the moment its boundary checkpoint
  // is stable (docs/reconfiguration.md): the engine re-derives quorums from
  // the new epoch before any post-boundary slot is voted on.
  bool was_member = membership_.is_member(opts_.self);
  if (membership_.activate_up_to(checkpoints_.last_stable())) {
    note_membership_change(was_member, ctx.now());
  }
  return true;
}

bool ReplicaRuntime::adopt_checkpoint(const ExecCertificate& cert,
                                      std::shared_ptr<const Bytes> envelope,
                                      sim::ActorContext& ctx) {
  if (cert.seq <= le_) return false;
  ctx.charge(ctx.costs().hash_us(envelope->size()));
  // The sections are views into *envelope; adopt moves the pointer, not the
  // bytes, so they stay valid throughout.
  auto sections = install_checkpoint_service(as_span(*envelope), cert.state_root);
  if (!sections) return false;  // corrupt envelope or forged snapshot

  le_ = cert.seq;
  // Merge the snapshot's cache into ours, keeping our own entries where they
  // are newer.
  replies_.absorb(std::move(sections->replies));
  // The membership section moves the roster forward (never back): a joining
  // replica learns the epoch that admitted it from the snapshot itself, and a
  // staged-but-unactivated reconfiguration survives the transfer.
  bool was_member = membership_.is_member(opts_.self);
  uint64_t epoch_before =
      membership_.configured() ? membership_.active().epoch : 0;
  membership_.restore(sections->membership);
  membership_.activate_up_to(cert.seq);
  if (membership_.configured() && membership_.active().epoch != epoch_before) {
    note_membership_change(was_member, ctx.now());
  }
  // The marker section replaces the executor's lock/transaction state with
  // the donors' view at this checkpoint, so later markers execute against the
  // same state on every replica of the group (docs/sharding.md).
  if (opts_.marker_executor != nullptr) {
    opts_.marker_executor->restore(sections->marker);
  }
  exec_digests_[cert.seq] = cert.exec_digest();
  checkpoints_.adopt(cert, std::move(envelope));
  trace_.instant(ctx.now(), obs::Category::kCheckpoint,
                 obs::ev::kCheckpointAdopted, 0, cert.seq, 0, "digest",
                 obs::digest_prefix(exec_digests_[cert.seq].data()));
  wal_record_checkpoint();
  // The adopted pair becomes this replica's donor view (and its delta base
  // the next time it falls behind).
  if (state_transfer_.note_checkpoint(checkpoints_)) {
    ctx.charge(ctx.costs().hash_us(checkpoints_.snapshot().size()));
  }
  records_.erase(records_.begin(), records_.lower_bound(cert.seq));
  return true;
}

std::optional<CheckpointSnapshot> ReplicaRuntime::install_checkpoint_service(
    ByteSpan envelope, const Digest& state_root) {
  auto sections = decode_checkpoint_snapshot(envelope);
  if (!sections) return std::nullopt;
  auto fresh = service_->clone_empty();
  fresh->set_snapshot_chunk_hint(opts_.state_transfer_chunk_size);
  if (!fresh->restore(sections->service_state)) return std::nullopt;
  if (!(fresh->state_digest() == state_root)) return std::nullopt;
  service_ = std::move(fresh);
  return sections;
}

// ---------------------------------------------------------------------------
// WAL

void ReplicaRuntime::wal_record_view(ViewNum v) {
  if (!opts_.wal) return;
  opts_.wal->record_view(v);
  stats_.wal_bytes_written = opts_.wal->bytes_written();
}

void ReplicaRuntime::wal_record_vote(SeqNum s, ViewNum v,
                                     const Digest& block_digest) {
  if (!opts_.wal) return;
  opts_.wal->record_vote(s, v, block_digest);
  stats_.wal_bytes_written = opts_.wal->bytes_written();
}

void ReplicaRuntime::wal_record_checkpoint() {
  if (!opts_.wal || !checkpoints_.has_shippable()) return;
  opts_.wal->record_checkpoint(checkpoints_.snapshot_cert(),
                               checkpoints_.snapshot_ptr());
  stats_.wal_bytes_written = opts_.wal->bytes_written();
}

std::shared_ptr<const Bytes> ReplicaRuntime::snapshot_envelope() const {
  // Align the envelope to the transfer chunk grid so the service serializer's
  // page-aligned sections land exactly on chunk boundaries (delta transfer
  // compares the two grids chunk-for-chunk). The membership and marker
  // sections ride at the mutable tail next to the reply cache.
  Bytes marker;
  if (opts_.marker_executor != nullptr) marker = opts_.marker_executor->snapshot();
  return std::make_shared<const Bytes>(encode_checkpoint_snapshot(
      as_span(service_->snapshot()), replies_, opts_.state_transfer_chunk_size,
      as_span(membership_.encode()), as_span(marker)));
}

}  // namespace sbft::runtime
