// Crash recovery (§VIII): rebuilds a replica's consensus and service state
// from its surviving storage — the WAL (view, stable checkpoint certificate +
// snapshot envelope, in-flight votes) and the block ledger (committed
// decision blocks).
//
// Recovery sequence:
//   1. load the WAL; decode the checkpoint snapshot envelope, restore the
//      service from its state part and verify it against the certificate's
//      state root (a corrupt snapshot aborts recovery — the replica boots
//      fresh and relies on the protocol's state-transfer path instead), and
//      restore the persisted per-client reply cache,
//   2. replay the ledger's contiguous blocks past the checkpoint, re-deriving
//      the chained execution digests d_s and the execution records. Replay
//      consults the restored reply cache, so duplicates of *pre-checkpoint*
//      requests are suppressed exactly as the original execution suppressed
//      them — re-executing a non-idempotent operation (an EVM transfer) would
//      diverge from the certified state roots,
//   3. hand back the recovered view and votes so the replica re-enters the
//      protocol without equivocating on anything it signed pre-crash.
//
// If the local log is behind the cluster's stable checkpoint the replica
// simply recovers to its old position and catches up through the existing
// state-transfer path (triggered on boot for restarted replicas).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "kv/service.h"
#include "recovery/wal.h"
#include "runtime/marker_executor.h"
#include "runtime/membership.h"
#include "runtime/reply_cache.h"
#include "storage/ledger_storage.h"

namespace sbft::recovery {

/// One ledger block re-executed during recovery; carries everything the
/// replica needs to reconstruct its ExecRecord for the sequence.
struct ReplayedBlock {
  SeqNum seq = 0;
  ViewNum view = 0;  // view of the persisted pre-prepare
  SealedBlock block;
  ExecCertificate cert;  // re-derived; pi_sig empty (not re-certified)
  std::vector<Bytes> values;
  std::vector<Digest> leaves;
};

struct RecoveredState {
  ViewNum view = 0;
  SeqNum last_stable = 0;
  SeqNum last_executed = 0;
  ExecCertificate checkpoint;  // valid when last_stable > 0
  Bytes snapshot;              // checkpoint snapshot envelope as persisted
  std::map<SeqNum, Digest> exec_digests;  // d_s chain from checkpoint (or genesis)
  std::vector<ReplayedBlock> replayed;
  std::vector<WalVote> votes;  // in-flight votes above last_executed
  std::unique_ptr<IService> service;
  // Reply cache restored from the checkpoint snapshot and advanced through
  // the replayed suffix: serves retries of pre-crash requests and guards
  // against re-executing duplicates.
  runtime::ReplyCache reply_cache;
  uint64_t replayed_bytes = 0;  // encoded bytes re-read from the ledger
  // Snapshot envelope at the highest checkpoint-interval multiple replayed
  // (0 = none): lets the replica re-arm its pending checkpoint snapshot so a
  // certificate arriving post-recovery pairs with consistent state.
  SeqNum snapshot_seq = 0;
  Bytes snapshot_at;
  // Membership as of the crash: restored from the checkpoint envelope's
  // membership section, activated through the stable boundary, and advanced
  // by any reconfiguration markers in the replayed suffix
  // (docs/reconfiguration.md). Unconfigured for pre-membership logs — the
  // replica keeps its bootstrap roster then.
  runtime::MembershipManager membership;
};

class RecoveryManager {
 public:
  /// `checkpoint_interval` > 0 re-captures service snapshots at interval
  /// multiples during replay (pass ProtocolConfig::checkpoint_interval()).
  /// `snapshot_align` is the state-transfer chunk size: re-captured envelopes
  /// must be byte-identical to the ones live execution would have produced
  /// (the delta path compares them across replicas), so replay encodes them
  /// with the same chunk hint and alignment.
  /// `marker_executor` mirrors live execution's marker routing during replay
  /// (cross-shard Prepare/decision requests never touch the service): its
  /// state is restored from the checkpoint envelope's marker section and
  /// advanced through the replayed suffix, exactly like membership.
  RecoveryManager(std::shared_ptr<storage::ILedgerStorage> ledger,
                  std::shared_ptr<IReplicaWal> wal, uint64_t checkpoint_interval = 0,
                  uint32_t snapshot_align = 0,
                  runtime::IMarkerExecutor* marker_executor = nullptr)
      : ledger_(std::move(ledger)),
        wal_(std::move(wal)),
        checkpoint_interval_(checkpoint_interval),
        snapshot_align_(snapshot_align),
        marker_executor_(marker_executor) {}

  /// Rebuilds state from the attached storage. Returns nullopt when there is
  /// nothing to recover (fresh storage) or the snapshot fails verification.
  std::optional<RecoveredState> recover(
      const std::function<std::unique_ptr<IService>()>& service_factory) const;

 private:
  std::shared_ptr<storage::ILedgerStorage> ledger_;
  std::shared_ptr<IReplicaWal> wal_;
  uint64_t checkpoint_interval_ = 0;
  uint32_t snapshot_align_ = 0;
  runtime::IMarkerExecutor* marker_executor_ = nullptr;
};

}  // namespace sbft::recovery
