// Protocol-agnostic replica runtime.
//
// Both ordering engines — SBFT (src/core/replica.h) and the scale-optimized
// PBFT baseline (src/pbft/pbft_replica.h) — decide *which* block commits at
// each sequence number; everything that happens after that decision is
// identical and lives here:
//   * the execution pipeline: in-order execution of committed blocks through
//     the generic service, the chained execution digests d_s, and the
//     execution records (values, Merkle leaves, certificates) that back
//     client acks and block fetches,
//   * the per-client ReplyCache, serialized into checkpoint snapshots so a
//     recovered replica answers duplicates of pre-checkpoint requests from
//     cache instead of re-executing them,
//   * checkpointing through the CheckpointManager (snapshot capture at
//     checkpoint-execution time, stable-certificate tracking, record GC),
//   * durability: ledger persistence of decision blocks, the WAL hooks
//     (views, votes, checkpoints), and boot-time recovery (§VIII, recover()).
//
// One function decides what an ordered block does (apply_block): the
// reconfiguration/reserved-client/shard-marker/duplicate/marker-executor/
// service dispatch, the leaves, the certificate and d_s chain, last_executed,
// and the pending checkpoint snapshot. Live execution
// (execute_block) and crash-recovery replay (recover) both run it and differ
// only in accounting: live execution charges CPU, appends to the ledger,
// moves the counters and traces; replay does none of that. A replica rebuilt
// from its disk therefore derives the very d_s chain it certified before
// the crash.
//
// The runtime never sends messages and holds no view/quorum state — that is
// the ordering engine's job. This split is what makes every crash/restart/
// disk-wipe scenario in the harness write-once-run-on-both.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "kv/service.h"
#include "obs/trace.h"
#include "proto/message.h"
#include "recovery/wal.h"
#include "runtime/checkpoint_manager.h"
#include "runtime/evidence_store.h"
#include "runtime/marker_executor.h"
#include "runtime/membership.h"
#include "runtime/reply_cache.h"
#include "runtime/snapshot.h"
#include "runtime/state_transfer.h"
#include "sim/network.h"
#include "storage/ledger_storage.h"

namespace sbft::runtime {

struct RuntimeOptions {
  uint64_t checkpoint_interval = 0;  // 0: checkpoints disabled
  std::shared_ptr<storage::ILedgerStorage> ledger;  // optional persistence
  std::shared_ptr<recovery::IReplicaWal> wal;       // optional consensus WAL
  // Chunked state transfer (ProtocolConfig::state_transfer_chunk_size;
  // docs/state_transfer.md).
  uint32_t state_transfer_chunk_size = 64 * 1024;
  // Marker-request executor (src/shard 2PC; docs/sharding.md). Not owned —
  // the harness keeps it alive across replica incarnations, like the ledger.
  // Null routes every non-reconfig request to the service, as before.
  IMarkerExecutor* marker_executor = nullptr;
  // Group reconfiguration (docs/reconfiguration.md): the bootstrap roster
  // this replica starts from (the genesis epoch, or — for a joining replica —
  // the epoch the operator handed it; state transfer moves it forward from
  // there). Empty leaves membership unconfigured: reconfiguration markers are
  // ignored and every membership query is a no-op (runtime-only unit tests).
  uint32_t membership_f = 0;
  uint32_t membership_c = 0;
  std::vector<ReplicaInfo> bootstrap_members;
  ReplicaId self = 0;  // this replica's id (join detection)
  // Structured tracing (docs/observability.md); null leaves the runtime bound
  // to the shared disabled tracer.
  std::shared_ptr<obs::Tracer> tracer;
};

/// Stats common to every protocol. The protocol stats structs (ReplicaStats,
/// PbftStats) inherit this directly — engine snapshots slice-assign the base
/// instead of copying field by field — and for_each is the single descriptor
/// the harness uses to fold every counter into the metrics registry, so a new
/// counter is one field plus one fn() line.
struct RuntimeStats {
  uint64_t blocks_executed = 0;
  uint64_t requests_executed = 0;
  uint64_t reply_cache_hits = 0;  // duplicates served or suppressed
  uint64_t state_transfers = 0;   // requests issued by the owning replica
  uint64_t recoveries = 0;        // 1 when this incarnation rebuilt from storage
  uint64_t blocks_replayed = 0;   // ledger blocks re-executed during recovery
  uint64_t wal_bytes_written = 0; // cumulative WAL appends (handle lifetime)
  // Chunked state transfer (docs/state_transfer.md).
  uint64_t state_transfer_chunks_served = 0;   // donor: chunks shipped
  uint64_t state_transfer_chunks_fetched = 0;  // fetcher: chunks verified+stored
  uint64_t state_transfer_invalid_chunks = 0;  // fetcher: failed Merkle check
  uint64_t state_transfer_resumes = 0;         // retry ticks with partial data
  // Chunk payload verified and stored by this replica's fetcher role; summed
  // across a cluster this equals the snapshot bytes moved exactly once.
  uint64_t state_transfer_bytes_transferred = 0;
  // Delta state transfer (fetcher role): chunks a delta manifest let this
  // replica seed from its retained local snapshot instead of fetching, and
  // the payload bytes that therefore never touched the wire.
  uint64_t delta_chunks_skipped = 0;
  uint64_t delta_bytes_saved = 0;
  // Group reconfiguration (docs/reconfiguration.md).
  uint64_t epochs_activated = 0;  // membership epochs that took effect here
  uint64_t joins_completed = 0;   // this replica became a member via an epoch

  /// Invokes fn(name, value) for every runtime counter.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    fn("blocks_executed", blocks_executed);
    fn("requests_executed", requests_executed);
    fn("reply_cache_hits", reply_cache_hits);
    fn("state_transfers", state_transfers);
    fn("recoveries", recoveries);
    fn("blocks_replayed", blocks_replayed);
    fn("wal_bytes_written", wal_bytes_written);
    fn("state_transfer_chunks_served", state_transfer_chunks_served);
    fn("state_transfer_chunks_fetched", state_transfer_chunks_fetched);
    fn("state_transfer_invalid_chunks", state_transfer_invalid_chunks);
    fn("state_transfer_resumes", state_transfer_resumes);
    fn("state_transfer_bytes_transferred", state_transfer_bytes_transferred);
    fn("delta_chunks_skipped", delta_chunks_skipped);
    fn("delta_bytes_saved", delta_bytes_saved);
    fn("epochs_activated", epochs_activated);
    fn("joins_completed", joins_completed);
  }
};

/// Everything the runtime retains about an executed sequence. Records live
/// until the next stable checkpoint, so each holds its replies and leaves at
/// exactly the block's size.
struct ExecutionRecord {
  ExecCertificate cert;  // pi_sig filled in by the E-collector (SBFT only)
  SealedBlock block;     // shared with the slot and the pre-prepare
  ViewNum pp_view = 0;
  ByteList values;  // values[l]: the reply to request l of the block
  std::vector<Digest> leaves;
  sim::SimTime executed_at = 0;
};

/// Protocol-level state handed back from recovery; the generic state (service,
/// execution records, reply cache, checkpoints) is installed directly.
struct RecoveredProtocolState {
  ViewNum view = 0;
  std::vector<recovery::WalVote> votes;  // in-flight votes (anti-equivocation)
  uint64_t replayed_bytes = 0;           // charge as boot-time replay I/O

  /// Folds the persisted in-flight votes into the replica's anti-equivocation
  /// map (seq -> highest voted view + digest) and returns the first sequence
  /// a restarted primary may propose at: past everything executed *and*
  /// everything it pre-prepared before the crash (re-proposing a different
  /// block at a voted sequence would be self-equivocation).
  SeqNum install_votes(std::map<SeqNum, std::pair<ViewNum, Digest>>& wal_votes,
                       SeqNum next_seq) const {
    for (const recovery::WalVote& v : votes) {
      auto& entry = wal_votes[v.seq];
      if (v.view >= entry.first) entry = {v.view, v.block_digest};
    }
    if (!wal_votes.empty()) {
      next_seq = std::max(next_seq, wal_votes.rbegin()->first + 1);
    }
    return next_seq;
  }
};

class ReplicaRuntime {
 public:
  ReplicaRuntime(RuntimeOptions options, std::unique_ptr<IService> service);

  /// Rebuilds state from the attached storage (§VIII). Call once, before the
  /// owning replica starts. The recovery sequence:
  ///   1. load the WAL and install its stable checkpoint: the service part of
  ///      the snapshot envelope is verified against the certificate's state
  ///      root, and the reply cache, membership and marker-executor sections
  ///      ride along,
  ///   2. replay the ledger's contiguous blocks past the checkpoint through
  ///      apply_block, so duplicates, d_s, the execution records and the
  ///      pending checkpoint snapshot come out as live execution made them,
  ///   3. hand back the view and the in-flight votes so the replica re-enters
  ///      the protocol without equivocating on anything it signed pre-crash.
  /// nullopt when storage is fresh or absent, or when the checkpoint snapshot
  /// fails verification (nothing is installed; the replica boots fresh and
  /// catches up through state transfer, as it does when its log is behind
  /// the cluster's stable checkpoint).
  std::optional<RecoveredProtocolState> recover();

  // --- execution -------------------------------------------------------------
  /// Executes the committed block at s == last_executed() + 1 through
  /// apply_block, then does the live accounting: charges the execution,
  /// persistence and snapshot costs, persists the decision block, moves the
  /// counters, and traces. Returns the retained record.
  ExecutionRecord& execute_block(SeqNum s, ViewNum pp_view,
                                 const SealedBlock& block,
                                 sim::ActorContext& ctx);
  SeqNum last_executed() const { return le_; }
  std::optional<Digest> exec_digest_of(SeqNum s) const;
  ExecutionRecord* record(SeqNum s);
  const ExecutionRecord* record(SeqNum s) const;

  // --- reply cache -----------------------------------------------------------
  const ReplyCache& replies() const { return replies_; }
  /// Cached reply when `timestamp` is a duplicate (counts a cache hit);
  /// nullptr when the request is new.
  const CachedReply* cached_reply(ClientId client, uint64_t timestamp);

  // --- checkpoints -----------------------------------------------------------
  CheckpointManager& checkpoints() { return checkpoints_; }
  const CheckpointManager& checkpoints() const { return checkpoints_; }
  SeqNum last_stable() const { return checkpoints_.last_stable(); }
  /// `cert` is the execution certificate of a checkpoint-interval sequence
  /// that the protocol certified stable (pi quorum for SBFT, checkpoint-vote
  /// quorum for PBFT). Advances the stable state, persists the checkpoint to
  /// the WAL, and garbage-collects execution records below it.
  bool advance_stable(ExecCertificate cert, sim::ActorContext& ctx);
  /// Installs a checkpoint received via state transfer after verifying the
  /// snapshot envelope's service part against cert.state_root; the envelope
  /// moves into the CheckpointManager (and the WAL) without a copy. The
  /// protocol layer performs any signature verification *before* calling
  /// this.
  bool adopt_checkpoint(const ExecCertificate& cert,
                        std::shared_ptr<const Bytes> envelope,
                        sim::ActorContext& ctx);

  // --- view-change evidence --------------------------------------------------
  /// Certificates and full proofs the owning replica must carry into a view
  /// change (docs/architecture.md): engines record them as they form and
  /// read them when building view-change messages; checkpoint advance is the
  /// engines' cue to gc_through the new stable seq.
  EvidenceStore& evidence() { return evidence_; }
  const EvidenceStore& evidence() const { return evidence_; }

  // --- state transfer --------------------------------------------------------
  /// Chunked state-transfer state machine (fetcher + donor roles); the
  /// ordering engines drive it and send what it hands back — the runtime
  /// itself never touches the network (docs/state_transfer.md).
  StateTransferManager& state_transfer() { return state_transfer_; }
  const StateTransferManager& state_transfer() const { return state_transfer_; }

  // --- membership ------------------------------------------------------------
  /// Membership epochs (docs/reconfiguration.md): the engines read the active
  /// epoch for every quorum/primary/address computation. Reconfiguration
  /// markers ordered through execute_block stage deltas here; epochs activate
  /// when advance_stable / adopt_checkpoint reach the activation boundary —
  /// both return true through epoch_changed() queries the engines poll.
  const MembershipManager& membership() const { return membership_; }
  /// True once per activation: the active epoch changed since the last call
  /// (the engine refreshes its derived quorum/crypto state and checks for its
  /// own retirement).
  bool take_epoch_change() {
    bool changed = epoch_changed_;
    epoch_changed_ = false;
    return changed;
  }

  // --- WAL -------------------------------------------------------------------
  void wal_record_view(ViewNum v);
  void wal_record_vote(SeqNum s, ViewNum v, const Digest& block_digest);

  IService& service() { return *service_; }
  const IService& service() const { return *service_; }
  RuntimeStats& stats() { return stats_; }
  const RuntimeStats& stats() const { return stats_; }

 private:
  /// What apply_block did that only live execution accounts for.
  struct BlockTally {
    int64_t exec_cost_us = 0;  // service/executor CPU under the cost model
    uint64_t requests_executed = 0;
    uint64_t cache_hits = 0;
    size_t snapshot_bytes = 0;  // checkpoint envelope captured (0: none)
  };
  /// Decides what the ordered block at s == last_executed() + 1 does (see the
  /// file comment) and retains its record. `costs` prices the execution into
  /// `tally`; nothing here charges, persists or traces.
  ExecutionRecord& apply_block(SeqNum s, ViewNum pp_view, const SealedBlock& block,
                               const sim::CostModel& costs, BlockTally& tally);
  /// Decodes a checkpoint snapshot envelope, restores its service part into a
  /// fresh service and verifies it against `state_root`. On success the fresh
  /// service replaces service_ and the envelope's other sections are returned
  /// for the caller to install, as views into `envelope`; nullopt (nothing
  /// changed) when the envelope is corrupt or does not match the root.
  std::optional<CheckpointSnapshot> install_checkpoint_service(
      ByteSpan envelope, const Digest& state_root);
  std::shared_ptr<const Bytes> snapshot_envelope() const;
  void wal_record_checkpoint();
  /// Folds a membership activation (or restore) into the stats and the
  /// engine-visible change flag. `now` timestamps the trace event.
  void note_membership_change(bool was_member, sim::SimTime now);

  RuntimeOptions opts_;
  obs::Tracer& trace_;  // opts_.tracer or the shared disabled instance
  std::unique_ptr<IService> service_;
  ReplyCache replies_;
  CheckpointManager checkpoints_;
  EvidenceStore evidence_;
  StateTransferManager state_transfer_;
  MembershipManager membership_;
  bool epoch_changed_ = false;

  SeqNum le_ = 0;  // last executed sequence
  std::map<SeqNum, ExecutionRecord> records_;
  std::map<SeqNum, Digest> exec_digests_;  // d_s chain (kept across GC)

  RuntimeStats stats_;
};

}  // namespace sbft::runtime
