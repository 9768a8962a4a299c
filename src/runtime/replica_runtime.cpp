#include "runtime/replica_runtime.h"

#include "common/check.h"
#include "crypto/sha256.h"
#include "merkle/merkle_tree.h"
#include "recovery/recovery_manager.h"
#include "runtime/snapshot.h"

namespace sbft::runtime {

ReplicaRuntime::ReplicaRuntime(RuntimeOptions options,
                               std::unique_ptr<IService> service)
    : opts_(std::move(options)),
      trace_(opts_.tracer ? *opts_.tracer : obs::Tracer::nop()),
      service_(std::move(service)),
      checkpoints_(opts_.checkpoint_interval),
      state_transfer_(opts_.state_transfer_chunk_size,
                      opts_.state_transfer_max_chunks_per_request,
                      opts_.state_transfer_donor_chunks_per_tick,
                      opts_.state_transfer_delta_history) {
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
  if (!opts_.ledger && !opts_.wal) return std::nullopt;
  recovery::RecoveryManager manager(opts_.ledger, opts_.wal,
                                    opts_.checkpoint_interval,
                                    opts_.state_transfer_chunk_size,
                                    opts_.marker_executor);
  auto recovered = manager.recover([this] { return service_->clone_empty(); });
  if (!recovered) return std::nullopt;  // fresh storage, or snapshot corrupt

  service_ = std::move(recovered->service);
  service_->set_snapshot_chunk_hint(opts_.state_transfer_chunk_size);
  // Membership as of the crash (checkpoint envelope + replayed markers); a
  // pre-membership log leaves the bootstrap roster in place.
  if (recovered->membership.configured()) {
    membership_ = std::move(recovered->membership);
    epoch_changed_ = membership_.active().epoch > 0;
  }
  le_ = recovered->last_executed;
  replies_ = std::move(recovered->reply_cache);
  exec_digests_ = std::move(recovered->exec_digests);
  exec_digests_.emplace(0, genesis_exec_digest());
  if (recovered->last_stable > 0) {
    checkpoints_.restore(recovered->checkpoint, std::move(recovered->snapshot),
                         recovered->snapshot_seq,
                         std::move(recovered->snapshot_at));
  } else if (recovered->snapshot_seq > 0) {
    checkpoints_.capture_pending(recovered->snapshot_seq,
                                 std::move(recovered->snapshot_at));
  }

  // Reinstall execution records for the replayed suffix so the replica serves
  // retries and block fetches exactly as its previous incarnation would have.
  for (recovery::ReplayedBlock& rb : recovered->replayed) {
    ExecutionRecord rec;
    rec.cert = rb.cert;
    rec.pp_view = rb.view;
    rec.block = std::move(rb.block);
    rec.values = std::move(rb.values);
    rec.leaves = std::move(rb.leaves);
    records_.emplace(rb.seq, std::move(rec));
  }

  stats_.recoveries = 1;
  stats_.blocks_replayed = recovered->replayed.size();
  if (opts_.wal) stats_.wal_bytes_written = opts_.wal->bytes_written();

  RecoveredProtocolState out;
  out.view = recovered->view;
  out.votes = std::move(recovered->votes);
  out.replayed_bytes = recovered->replayed_bytes;
  return out;
}

// ---------------------------------------------------------------------------
// Execution pipeline

ExecutionRecord& ReplicaRuntime::execute_block(SeqNum s, ViewNum pp_view,
                                               const Block& block,
                                               sim::ActorContext& ctx) {
  SBFT_CHECK(s == le_ + 1);
  ExecutionRecord rec;
  rec.block = block;
  rec.pp_view = pp_view;
  for (size_t l = 0; l < rec.block.requests.size(); ++l) {
    const Request& req = rec.block.requests[l];
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
        ctx.charge(opts_.marker_executor->last_execute_cost_us(ctx.costs()));
        ++stats_.requests_executed;
      } else {
        value = to_bytes("TX-REJECTED");
      }
    } else if (const CachedReply* cached = replies_.find(req.client);
               cached != nullptr && req.timestamp <= cached->timestamp) {
      value = cached->value;  // duplicate: executed exactly once
      ++stats_.reply_cache_hits;
    } else if (opts_.marker_executor != nullptr &&
               opts_.marker_executor->claims(req)) {
      // Transaction Prepare from a real client: executed by the marker
      // executor (lock/validate, never the service), but cached like any
      // client request so retries are served without re-locking.
      value = opts_.marker_executor->execute_marker(req, s, *service_);
      ctx.charge(opts_.marker_executor->last_execute_cost_us(ctx.costs()));
      replies_.store(req.client, req.timestamp, s, l, value);
      ++stats_.requests_executed;
    } else {
      value = service_->execute(as_span(req.op));
      ctx.charge(service_->last_execute_cost_us(ctx.costs()));
      replies_.store(req.client, req.timestamp, s, l, value);
      ++stats_.requests_executed;
    }
    rec.leaves.push_back(
        exec_leaf(req.client, req.timestamp, crypto::sha256(as_span(value))));
    rec.values.push_back(std::move(value));
  }

  ExecCertificate cert;
  cert.seq = s;
  cert.state_root = service_->state_digest();
  cert.ops_root = rec.leaves.empty() ? empty_ops_root()
                                     : merkle::BlockMerkleTree(rec.leaves).root();
  cert.prev_exec_digest = exec_digests_[s - 1];
  exec_digests_[s] = cert.exec_digest();
  rec.cert = cert;

  // Persist the decision block (§IX: transactions persist to disk).
  ctx.charge(ctx.costs().persist_us(rec.block.wire_size()));
  if (opts_.ledger) {
    opts_.ledger->append_block(
        s, as_span(encode_message(Message(PrePrepareMsg{s, pp_view, rec.block}))));
  }
  le_ = s;
  ++stats_.blocks_executed;
  trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kExecute, s, s,
                 pp_view, "digest", obs::digest_prefix(exec_digests_[s].data()));

  // Capture the checkpoint snapshot while the service state still equals the
  // state the certificate describes; the reply cache rides along so recovery
  // suppresses pre-checkpoint duplicates (charged as a bulk hash).
  if (opts_.checkpoint_interval > 0 && s % opts_.checkpoint_interval == 0) {
    Bytes envelope = snapshot_envelope();
    ctx.charge(ctx.costs().hash_us(envelope.size()));
    checkpoints_.capture_pending(s, std::move(envelope));
    trace_.instant(ctx.now(), obs::Category::kCheckpoint,
                   obs::ev::kCheckpointCaptured, 0, s);
  }

  rec.executed_at = ctx.now();
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
    Bytes envelope = snapshot_envelope();
    ctx.charge(ctx.costs().hash_us(envelope.size()));
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
                                      ByteSpan snapshot_envelope_bytes,
                                      sim::ActorContext& ctx) {
  if (cert.seq <= le_) return false;
  auto fresh = service_->clone_empty();
  fresh->set_snapshot_chunk_hint(opts_.state_transfer_chunk_size);
  auto decoded = decode_checkpoint_snapshot(snapshot_envelope_bytes);
  ctx.charge(ctx.costs().hash_us(snapshot_envelope_bytes.size()));
  if (!decoded) return false;  // corrupt envelope
  if (!fresh->restore(as_span(decoded->service_state))) return false;
  if (!(fresh->state_digest() == cert.state_root)) return false;  // forged

  service_ = std::move(fresh);
  le_ = cert.seq;
  // Merge the snapshot's cache into ours, keeping our own entries where they
  // are newer.
  replies_.absorb(std::move(decoded->replies));
  // The membership section moves the roster forward (never back): a joining
  // replica learns the epoch that admitted it from the snapshot itself, and a
  // staged-but-unactivated reconfiguration survives the transfer.
  bool was_member = membership_.is_member(opts_.self);
  uint64_t epoch_before =
      membership_.configured() ? membership_.active().epoch : 0;
  membership_.restore(as_span(decoded->membership));
  membership_.activate_up_to(cert.seq);
  if (membership_.configured() && membership_.active().epoch != epoch_before) {
    note_membership_change(was_member, ctx.now());
  }
  // The marker section replaces the executor's lock/transaction state with
  // the donors' view at this checkpoint, so later markers execute against the
  // same state on every replica of the group (docs/sharding.md).
  if (opts_.marker_executor != nullptr) {
    opts_.marker_executor->restore(as_span(decoded->marker));
  }
  exec_digests_[cert.seq] = cert.exec_digest();
  checkpoints_.adopt(cert, to_bytes(snapshot_envelope_bytes));
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
                               as_span(checkpoints_.snapshot()));
  stats_.wal_bytes_written = opts_.wal->bytes_written();
}

Bytes ReplicaRuntime::snapshot_envelope() const {
  // Align the envelope to the transfer chunk grid so the service serializer's
  // page-aligned sections land exactly on chunk boundaries (delta transfer
  // compares the two grids chunk-for-chunk). The membership and marker
  // sections ride at the mutable tail next to the reply cache.
  Bytes marker;
  if (opts_.marker_executor != nullptr) marker = opts_.marker_executor->snapshot();
  return encode_checkpoint_snapshot(as_span(service_->snapshot()), replies_,
                                    opts_.state_transfer_chunk_size,
                                    as_span(membership_.encode()),
                                    as_span(marker));
}

}  // namespace sbft::runtime
