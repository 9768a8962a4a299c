// Scale-optimized PBFT baseline (§IX).
//
// Classic three-phase PBFT with all-to-all prepare/commit rounds and signed
// messages (following [31]: public-key signatures rather than MAC vectors,
// which is what the paper's "scale optimized PBFT" uses at f=64). Clients
// wait for f+1 matching replies. Checkpoints are the quadratic PBFT protocol.
// The view change carries prepared certificates and refills gaps with no-ops;
// certificate signatures ride on the simulator's authenticated channels (the
// baseline is evaluated for performance and crash faults; see the paper
// substitutions in docs/architecture.md).
//
// The ordering engine sits on the same runtime::ReplicaRuntime and
// runtime::EngineShell as SBFT, so the baseline gets the identical execution
// pipeline, reply cache, checkpointing, WAL durability, crash recovery,
// admission, proposal pipeline, stall timer, view-change session and chunked
// state transfer — every crash/restart/disk-wipe harness scenario runs on
// both protocols through the same Cluster API.
// State-transfer certificates carry no pi threshold signature here (PBFT has
// no threshold keys): a weak checkpoint certificate (f+1 CheckpointSigShares)
// vouches for them instead, and the snapshot is verified against the
// certificate's state root.
//
// n = 3f + 1 (set c = 0 in the ProtocolConfig).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/engine_shell.h"

namespace sbft::pbft {

/// Per-replica checkpoint signing (CheckpointSigShare). The scheme is an
/// HMAC over a per-replica key derived from a cluster secret — the simulation
/// stand-in for per-replica public-key signatures, enforced (like the
/// simulated-BLS threshold scheme) by capability discipline: honest code only
/// ever signs with its own id, and the fault-injected donor fabricates a
/// checkpoint precisely because it *cannot* forge the other 2f signatures.
class CheckpointAuth {
 public:
  explicit CheckpointAuth(Bytes cluster_secret)
      : secret_(std::move(cluster_secret)) {}

  Bytes sign(ReplicaId replica, SeqNum seq, const Digest& state_root) const;
  bool verify(ReplicaId replica, SeqNum seq, const Digest& state_root,
              ByteSpan sig) const;

 private:
  Bytes secret_;
};

struct PbftOptions : runtime::EngineOptions {  // config.c must be 0
  // Fault injection: as a state-transfer donor, answer probes with a
  // fabricated-but-root-consistent checkpoint ahead of the cluster. The
  // manifest lacks the f+1 valid CheckpointSigShares of a weak certificate,
  // so fetchers reject it.
  bool fabricate_checkpoint = false;
  // Checkpoint signing/verification authority (shared per cluster). Null
  // disables checkpoint certificates entirely (unit setups).
  std::shared_ptr<const CheckpointAuth> checkpoint_auth;
};

/// Protocol counters over the shared runtime counters (execution, WAL,
/// state transfer, reconfiguration live in the runtime::RuntimeStats base).
struct PbftStats : runtime::RuntimeStats {
  uint64_t view_changes = 0;
  // State-transfer manifests/replies rejected for missing or invalid quorum
  // checkpoint certificates (the malicious-donor defense).
  uint64_t checkpoint_certs_rejected = 0;
  uint64_t noop_fill_blocks = 0;  // primary: empty blocks (runtime::EngineShell)

  /// Visits every counter as (name, value) — runtime base first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    runtime::RuntimeStats::for_each(fn);
    fn("view_changes", view_changes);
    fn("checkpoint_certs_rejected", checkpoint_certs_rejected);
    fn("noop_fill_blocks", noop_fill_blocks);
  }
};

class PbftReplica final : public runtime::EngineShell {
 public:
  PbftReplica(PbftOptions options, std::unique_ptr<IService> service);

  /// Protocol stats merged with the runtime's protocol-agnostic stats.
  PbftStats stats() const;
  std::optional<Digest> committed_digest_of(SeqNum s) const override;
  void for_each_stat(const StatVisitor& fn) const override {
    stats().for_each(fn);
  }

 private:
  /// Distinct voters of one round: a bit per replica id and a count.
  class VoteTally {
   public:
    void insert(ReplicaId r) {
      size_t word = r / 64;
      if (word >= bits_.size()) bits_.resize(word + 1, 0);
      uint64_t bit = uint64_t{1} << (r % 64);
      if (bits_[word] & bit) return;
      bits_[word] |= bit;
      ++count_;
    }
    uint32_t size() const { return count_; }

   private:
    std::vector<uint64_t> bits_;
    uint32_t count_ = 0;
  };

  struct Slot {
    bool has_pp = false;
    ViewNum pp_view = 0;
    Digest h{};
    Digest block_digest{};
    std::optional<SealedBlock> block;
    VoteTally prepares;  // matching h
    VoteTally commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    sim::SimTime pp_time = 0;      // when the pre-prepare was accepted
    sim::SimTime commit_time = 0;  // when the commit quorum formed
  };

  // --- engine hooks (runtime::EngineShell) ------------------------------------
  void on_engine_message(NodeId from, const Message& msg,
                         sim::ActorContext& ctx) override;
  void try_execute(sim::ActorContext& ctx) override;
  /// A quarter of the watermark window: no collector bound applies.
  uint64_t proposal_window() const override { return opts_.config.win / 4; }
  /// Blocks absorb the whole demand estimate: PBFT pays O(n^2) messages per
  /// block, so fuller-but-fewer blocks beat pipelining two half-size ones.
  uint32_t demand_split() const override { return 1; }
  uint64_t in_flight_requests() const override;
  SeqNum highest_slot() const override {
    return slots_.empty() ? 0 : slots_.rbegin()->first;
  }
  /// Charges the block hash and the primary's RSA signature.
  void propose_block(SeqNum s, SealedBlock block, sim::ActorContext& ctx) override;
  void start_view_change(ViewNum target, sim::ActorContext& ctx) override;
  /// If f+1 checkpoint votes prove the cluster executed past us, the stall is
  /// not the primary's fault: fetch the checkpoint as well (fuzz seed 91).
  void on_stall(sim::ActorContext& ctx) override;
  /// Weak checkpoint certificate: f+1 distinct signed checkpoint digests (at
  /// least one honest voucher) must back the manifest's certificate, so a
  /// single faulty donor cannot feed a fabricated-but-root-consistent
  /// checkpoint (PBFT has no pi threshold signature; this is its
  /// equivalent). An unverifiable manifest is ignored rather than excluding
  /// its donor: an honest donor may simply not have gathered f+1 matching
  /// signatures *yet* and will re-offer a complete certificate later.
  bool verify_manifest_cert(const StateManifestMsg& m,
                            sim::ActorContext& ctx) override {
    return verify_checkpoint_proof(m.cert, m.checkpoint_proof, ctx);
  }
  /// Ships the weak checkpoint certificate with every manifest.
  bool prepare_manifest(StateManifestMsg& m) override {
    m.checkpoint_proof = checkpoint_proof_for(m.cert);
    return true;
  }
  bool state_transfer_behind() const override {
    return execution_gap() || (opts_.recovering && le() == 0 && ls() == 0) ||
           (!retired_ && !runtime_.membership().is_member(opts_.id));
  }
  void on_checkpoint_adopted(SeqNum seq) override;
  /// The fabricated-checkpoint fault answers every probe with its invented
  /// checkpoint, and serves the chunks of that checkpoint.
  bool fabricated_manifest(NodeId from, const StateTransferRequestMsg& m,
                           sim::ActorContext& ctx) override;
  bool fabricated_chunks(NodeId from, const StateChunkRequestMsg& m,
                         sim::ActorContext& ctx) override;

  void handle_pre_prepare(NodeId from, const PrePrepareMsg& m, sim::ActorContext& ctx);
  /// Votes count under the replica id of the node that sent them.
  void handle_prepare(NodeId from, const PbftPrepareMsg& m, sim::ActorContext& ctx);
  void handle_commit(NodeId from, const PbftCommitMsg& m, sim::ActorContext& ctx);
  void handle_checkpoint(const PbftCheckpointMsg& m, sim::ActorContext& ctx);
  /// Continuation of handle_checkpoint once the vote signature cost has been
  /// paid (possibly on a worker lane).
  void handle_checkpoint_verified(const PbftCheckpointMsg& m,
                                  sim::ActorContext& ctx);
  void handle_view_change(NodeId from, const PbftViewChangeMsg& m,
                          sim::ActorContext& ctx);
  void handle_new_view(NodeId from, const PbftNewViewMsg& m, sim::ActorContext& ctx);

  // --- checkpoint certificates (CheckpointSigShare lists) --------------------
  /// Proof for the current shippable checkpoint: up to 2f+1 shares, served
  /// from f+1 up (the weak-certificate floor — a frontier executed by only
  /// an f+1-sized fragment never accrues 2f+1 matching votes); empty below
  /// that.
  std::vector<CheckpointSigShare> checkpoint_proof_for(
      const ExecCertificate& cert) const;
  /// Weak certificate: f+1 distinct members of the checkpoint's epoch, all
  /// verifying over (cert.seq, cert.state_root) — at least one honest
  /// voucher. Counts a rejection on failure; always passes without a
  /// CheckpointAuth (unit setups).
  bool verify_checkpoint_proof(const ExecCertificate& cert,
                               const std::vector<CheckpointSigShare>& proof,
                               sim::ActorContext& ctx);
  /// Fabricated-donor fault: manifest for a bogus checkpoint ahead of the
  /// cluster (built lazily, served from fake_* below).
  std::optional<StateManifestMsg> fabricate_manifest(
      const StateTransferRequestMsg& probe, sim::ActorContext& ctx);

  void accept_pre_prepare(SeqNum s, ViewNum v, SealedBlock block,
                          sim::ActorContext& ctx);
  void check_prepared(SeqNum s, sim::ActorContext& ctx);
  void check_committed(SeqNum s, sim::ActorContext& ctx);
  void enter_new_view(const PbftNewViewMsg& m, sim::ActorContext& ctx);
  bool execution_gap() const;
  /// Highest sequence for which f+1 distinct checkpoint votes on one digest
  /// are on hand — proof some honest replica executed that far.
  SeqNum checkpoint_evidence_frontier() const;

  bool fabricate_checkpoint_;
  std::shared_ptr<const CheckpointAuth> checkpoint_auth_;

  std::map<SeqNum, Slot> slots_;

  // Checkpoint votes: seq -> digest -> voter -> signature (CheckpointSigShare
  // material; sigs verified on arrival when checkpoint_auth is set). The
  // entry for the stable checkpoint is retained so the donor can ship a
  // certificate with its manifests.
  std::map<SeqNum, std::map<Digest, std::map<ReplicaId, Bytes>>> checkpoint_votes_;

  // The quorum certificate that vouched for the checkpoint this replica
  // adopted via state transfer: a fresh adopter has no checkpoint votes of
  // its own, so it re-serves this proof to later fetchers instead of being
  // an unusable donor until the next checkpoint forms. (In-memory only, like
  // the vote set — a restarted donor re-accumulates at the next checkpoint.)
  SeqNum adopted_proof_seq_ = 0;
  Digest adopted_proof_root_{};
  std::vector<CheckpointSigShare> adopted_proof_;

  // Fabricated-donor fault state (fabricate_checkpoint).
  Bytes fake_envelope_;
  std::unique_ptr<runtime::ChunkedSnapshot> fake_chunks_;
  ExecCertificate fake_cert_;

  std::map<ViewNum, std::map<ReplicaId, PbftViewChangeMsg>> vc_msgs_;

  PbftStats stats_;  // protocol-level counters; runtime fields merged in stats()
};

}  // namespace sbft::pbft
