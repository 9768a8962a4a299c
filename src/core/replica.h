// SBFT ordering engine (§V): fast path, Linear-PBFT fallback, execution
// acknowledgement with E-collectors, and the dual-mode view change.
// Everything protocol-independent — the execution pipeline, reply cache,
// checkpointing, WAL/recovery in runtime::ReplicaRuntime; admission, the
// proposal pipeline, the stall timer, the view-change session and quorum,
// chunked state transfer and reconfiguration glue in runtime::EngineShell —
// is shared with the PBFT baseline; this class decides *which* block commits
// at each sequence number, and what its view changes prove.
//
// The replica is a simulator actor: all sends/timers go through the
// ActorContext, and every cryptographic or service operation charges its
// calibrated cost so the discrete-event clock reflects a real deployment.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/crypto_context.h"
#include "core/view_change.h"
#include "runtime/engine_shell.h"

namespace sbft::core {

/// Fault behaviours injected for testing. Everything except kHonest models a
/// Byzantine or crashed replica; honest replicas must stay safe regardless.
enum class ReplicaBehavior {
  kHonest,
  kSilent,         // receives but never sends (crash-like, still counts CPU)
  kEquivocate,     // as primary, proposes different blocks to different halves
  kCorruptShares,  // flips a byte in every threshold share it emits
  kCensor,         // as primary, silently drops requests from odd-id clients
                   // (liveness must recover via the backup progress timers
                   // forcing a view change past the censoring primary)
};

struct ReplicaOptions : runtime::EngineOptions {
  ReplicaCrypto crypto;
  ReplicaBehavior behavior = ReplicaBehavior::kHonest;
  // Per-epoch threshold key material (trusted-dealer re-keying); epoch 0
  // always uses `crypto`. Required before any epoch > 0 activates.
  std::shared_ptr<const EpochKeyTable> epoch_keys;
};

/// SBFT protocol counters on top of the shared runtime counters (the base's
/// fields — execution, state transfer, recovery, reconfiguration — are
/// slice-assigned from the runtime in stats()).
struct ReplicaStats : runtime::RuntimeStats {
  uint64_t fast_commits = 0;
  uint64_t slow_commits = 0;
  uint64_t view_changes = 0;
  uint64_t invalid_shares_seen = 0;
  // Phase timing lives in the metrics registry's "stage.*" histograms
  // (pp_to_commit/commit_to_exec/pending_wait/exec_to_ack); the raw
  // per-replica sums that used to sit here were dead weight the counter lint
  // flagged — they were accumulated but never exported anywhere.
  uint64_t timed_slots = 0;        // slots with a pp->commit measurement
  uint64_t proposed_requests = 0;  // primary: requests batched into blocks
  uint64_t acked_blocks = 0;       // E-collector: blocks acked to clients
  uint64_t buffered_pi_shares = 0;
  uint64_t noop_fill_blocks = 0;  // primary: empty blocks (runtime::EngineShell)

  /// Invokes fn(name, value) for every counter, runtime fields included.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    runtime::RuntimeStats::for_each(fn);
    fn("fast_commits", fast_commits);
    fn("slow_commits", slow_commits);
    fn("view_changes", view_changes);
    fn("invalid_shares_seen", invalid_shares_seen);
    fn("timed_slots", timed_slots);
    fn("proposed_requests", proposed_requests);
    fn("acked_blocks", acked_blocks);
    fn("buffered_pi_shares", buffered_pi_shares);
    fn("noop_fill_blocks", noop_fill_blocks);
  }
};

class SbftReplica final : public runtime::EngineShell {
 public:
  SbftReplica(ReplicaOptions options, std::unique_ptr<IService> service);
  ~SbftReplica() override;  // defined where Slot is complete

  /// Protocol stats merged with the runtime's protocol-agnostic stats.
  ReplicaStats stats() const;
  /// Chained execution digest d_s for an executed sequence (nullopt if
  /// unknown / garbage collected without record).
  std::optional<Digest> exec_digest_of(SeqNum s) const {
    return runtime_.exec_digest_of(s);
  }
  std::optional<Digest> committed_digest_of(SeqNum s) const override;
  void for_each_stat(const StatVisitor& fn) const override {
    stats().for_each(fn);
  }

 private:
  struct Slot;

  /// The threshold proofs a collector combines: sigma(h) (fast path), tau(h)
  /// and tau(tau(h)) (Linear-PBFT, §V-E), pi(d) (execution, §V-D).
  enum Proof : uint64_t { kFast, kPrepare, kSlow, kExec, kNumProofs };

  // A collector that has not formed the fast proof sigma(h) this long after
  // the pre-prepare falls back to the slow path (§V-E); a replica re-sends
  // its stalled shares to the primary after twice that.
  static constexpr int64_t kFastPathTimeoutUs = 150'000;
  // Collector staggering (§V: "in most executions just one collector is
  // active and the others just monitor in idle"): the collector of stagger
  // rank k takes its turn k steps after the first.
  static constexpr int64_t kCollectorStaggerUs = 25'000;

  // Engine timer kinds (the shell owns the lower ones).
  enum TimerKind : uint64_t {
    kFastPathTimer = kFirstEngineTimer,
    kStagger,  // kStagger + p: a backup collector of proof p takes its turn
    kShareFallback = kStagger + kNumProofs,  // re-send sign-share (stalled slot)
    kStateFallback,  // re-send sign-state to the primary (stalled cert)
  };

  // --- engine hooks (runtime::EngineShell) ------------------------------------
  void on_engine_message(const Message& msg, sim::ActorContext& ctx) override;
  void on_engine_timer(uint64_t kind, uint64_t payload,
                       sim::ActorContext& ctx) override;
  void try_execute(sim::ActorContext& ctx) override;
  /// §VIII: at most (n-1)/(c+1) slots in flight, so each collector serves
  /// one slot at a time (capped at win/4).
  uint64_t proposal_window() const override;
  uint32_t demand_split() const override { return 2; }
  uint64_t in_flight_requests() const override;
  SeqNum highest_slot() const override;
  /// Charges the block hash; the equivocation fault splits the broadcast.
  void propose_block(SeqNum s, SealedBlock block, sim::ActorContext& ctx) override;
  /// Stable checkpoint certificate plus each slot's strongest evidence.
  MessagePtr make_view_change(ViewNum target, sim::ActorContext& ctx) override;
  /// Batch-verifies every evidence signature (validate_view_change).
  bool check_view_evidence(const Message& msg, sim::ActorContext& ctx) override;
  MessagePtr make_new_view(ViewNum v, const std::vector<const Message*>& quorum,
                           sim::ActorContext& ctx) override;
  /// Commits, adopts or no-ops each slot by compute_safe_value.
  void enter_new_view(const Message& new_view, sim::ActorContext& ctx) override;
  /// Checks the manifest certificate's pi signature, seq-aware with the
  /// provisioned-epoch fallback: a joiner fetches checkpoints certified under
  /// epochs it has not installed yet.
  bool verify_manifest_cert(const StateManifestMsg& m,
                            sim::ActorContext& ctx) override;
  /// Serves only pi-certified checkpoints.
  bool prepare_manifest(StateManifestMsg& m) override {
    return !m.cert.pi_sig.empty();
  }
  void on_checkpoint_adopted(SeqNum seq) override;
  bool silent() const override { return behavior_ == ReplicaBehavior::kSilent; }
  /// Censoring primary: requests from odd-id clients vanish at admission. The
  /// censored client keeps retrying, backups keep forwarding, and their
  /// progress timers eventually force a view change to an honest primary.
  bool censors(const Request& req) const override {
    return behavior_ == ReplicaBehavior::kCensor && is_primary() &&
           req.client % 2 == 1;
  }

  // --- message handlers -----------------------------------------------------
  void handle_pre_prepare(const PrePrepareMsg& m, sim::ActorContext& ctx);
  void handle_sign_share(const SignShareMsg& m, sim::ActorContext& ctx);
  void handle_full_commit_proof(const FullCommitProofMsg& m, sim::ActorContext& ctx);
  void handle_prepare(const PrepareMsg& m, sim::ActorContext& ctx);
  void handle_commit_share(const CommitShareMsg& m, sim::ActorContext& ctx);
  void handle_full_commit_proof_slow(const FullCommitProofSlowMsg& m,
                                     sim::ActorContext& ctx);
  void handle_sign_state(const SignStateMsg& m, sim::ActorContext& ctx);
  void handle_full_execute_proof(const FullExecuteProofMsg& m, sim::ActorContext& ctx);
  void handle_get_block_request(const GetBlockRequestMsg& m, sim::ActorContext& ctx);
  void handle_get_block_reply(const GetBlockReplyMsg& m, sim::ActorContext& ctx);

  // --- membership epochs (docs/reconfiguration.md) ----------------------------
  /// Threshold key material of an epoch: epoch 0 is the dealt cluster keys;
  /// later epochs resolve from the provisioned EpochKeyTable (memoized).
  const ReplicaCrypto& crypto_for_epoch(const runtime::MembershipEpoch& e) const;
  const ReplicaCrypto& crypto_for_seq(SeqNum s) const {
    return crypto_for_epoch(epoch_for_seq(s));
  }
  /// Signer index of `r` in slot s's epoch schemes (rank + 1); 0 = non-member.
  uint32_t signer_of(ReplicaId r, SeqNum s) const {
    int rank = epoch_for_seq(s).rank_of(r);
    return rank < 0 ? 0 : static_cast<uint32_t>(rank) + 1;
  }
  /// Checkpoint certificates outlive their epoch (and a joiner may fetch one
  /// certified under an epoch it has not installed yet): verify against the
  /// seq's epoch first, then every provisioned epoch.
  bool verify_cert_pi(const ExecCertificate& cert) const;
  /// Active epoch's verifier bundle for the pure view-change functions.
  ViewChangeVerifiers view_change_verifiers() const;

  // --- commit paths ----------------------------------------------------------
  void accept_pre_prepare(SeqNum s, ViewNum v, SealedBlock block,
                          sim::ActorContext& ctx);
  void commit(SeqNum s, const Digest& block_digest, bool fast, sim::ActorContext& ctx);

  // --- collectors (§V-B, redundant and staggered per §V-E) ---------------------
  /// Shares proof p needs: 3f+c+1 (sigma), 2f+c+1 (tau), f+1 (pi).
  static uint32_t quorum_of(const runtime::MembershipEpoch& e, Proof p);
  /// True while this collector still owes slot s proof p.
  bool proof_open(const Slot& sl, SeqNum s, Proof p) const;
  /// At quorum over `digest`, the rank-0 collector combines now; a backup of
  /// stagger rank k arms one kStagger + p timer, k stagger steps out.
  void maybe_collect(Slot& sl, SeqNum s, Proof p, const Digest& digest, int rank,
                     sim::ActorContext& ctx);
  /// The only code that combines threshold shares: batch-verifies and combines
  /// every full quorum of proof p on a worker lane, and retries a failed
  /// combine once its quorum has grown.
  void collect(SeqNum s, Proof p, sim::ActorContext& ctx);
  void send_proof(Slot& sl, SeqNum s, Proof p, const Digest& digest, Bytes sig,
                  size_t shares, sim::ActorContext& ctx);

  // --- execution (§V-D) -------------------------------------------------------
  void execute_block(SeqNum s, sim::ActorContext& ctx);
  void send_execute_acks(SeqNum s, sim::ActorContext& ctx);
  void advance_checkpoint(SeqNum s, sim::ActorContext& ctx);

  // --- crash recovery (§VIII) -------------------------------------------------
  /// Fast-forwards to view `v` on the strength of a verified combined
  /// threshold signature produced in `v` (a quorum operated there). Lets a
  /// recovered or lagging replica rejoin across view changes it slept
  /// through. No-op while a view change is in progress.
  void adopt_verified_view(ViewNum v, sim::ActorContext& ctx);

  // --- helpers -----------------------------------------------------------------
  Slot& slot(SeqNum s);
  Slot* find_slot(SeqNum s);
  Bytes sign_share_maybe_corrupt(const crypto::IThresholdSigner& signer,
                                 const Digest& d) const;

  ReplicaCrypto crypto_;
  ReplicaBehavior behavior_;
  std::shared_ptr<const EpochKeyTable> epoch_keys_;

  obs::Histogram* h_exec_to_ack_;

  // Memoized per-epoch ReplicaCrypto resolved from the EpochKeyTable.
  mutable std::map<uint64_t, ReplicaCrypto> epoch_crypto_;

  std::map<SeqNum, Slot> slots_;

  ReplicaStats stats_;  // protocol-level counters; runtime fields merged in stats()
};

}  // namespace sbft::core
