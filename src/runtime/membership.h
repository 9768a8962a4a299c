// Group reconfiguration: membership epochs and their lifecycle
// (docs/reconfiguration.md is the normative description — keep in sync).
//
// Membership changes follow PBFT's reconfiguration-through-ordered-blocks
// approach: a ReconfigDelta is ordered like any request (a reserved marker
// request, client id 0), *staged* when that block executes, and *activated*
// at the next stable checkpoint boundary — producing a new epoch (id, replica
// set, f/c and therefore all quorum sizes). Both ordering engines re-derive
// quorum/collector/primary math from the active epoch, and the epoch rides in
// the checkpoint snapshot envelope (version 4) so recovering and joining
// replicas learn the roster from state transfer itself.
//
// The activation boundary gives a clean epoch cut: every slot <= the boundary
// is ordered (and, under SBFT, threshold-signed) in the old epoch, every slot
// beyond it in the new one. Engines wedge proposals past a pending boundary
// until the checkpoint is stable, so no honest replica ever votes for a
// post-boundary slot under pre-boundary keys.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "proto/config.h"
#include "proto/message.h"

namespace sbft::runtime {

/// One membership epoch: the replica set plus the fault parameters the quorum
/// sizes derive from. Member ids need not be contiguous (removals leave
/// holes); the *rank* of a member — its index in the id-sorted member list —
/// is the per-epoch signer index used by threshold schemes dealt for the
/// epoch's roster.
struct MembershipEpoch {
  uint64_t epoch = 0;      // 0 = genesis
  uint32_t f = 0;
  uint32_t c = 0;
  SeqNum activated_at = 0;  // checkpoint seq the epoch took effect at
  std::vector<ReplicaInfo> members;  // sorted by replica id

  uint32_t n() const { return static_cast<uint32_t>(members.size()); }
  // Quorum formulas of ProtocolConfig, over the epoch's f and c. Validation
  // guarantees n() == 3f + 2c + 1, so the formulas keep their meaning.
  uint32_t fast_quorum() const { return 3 * f + c + 1; }
  uint32_t slow_quorum() const { return 2 * f + c + 1; }
  uint32_t exec_quorum() const { return f + 1; }
  uint32_t view_change_quorum() const { return 2 * f + 2 * c + 1; }
  uint32_t num_collectors() const { return c + 1; }

  /// Round-robin primary over the id-sorted member list.
  ReplicaId primary_of(ViewNum v) const {
    return members[static_cast<size_t>(v % n())].id;
  }
  bool contains(ReplicaId r) const { return rank_of(r) >= 0; }
  /// 0-based index of `r` in the id-sorted member list; -1 when absent.
  /// rank_of(r) + 1 is r's signer index in the epoch's threshold schemes.
  int rank_of(ReplicaId r) const;
  /// Network node of member `r`; members only (SBFT_CHECKed).
  NodeId node_of(ReplicaId r) const;

  /// `base` with f and c replaced by the epoch's, so n()/quorum helpers and
  /// every pure function taking a ProtocolConfig (view-change validation)
  /// compute against the epoch roster size.
  ProtocolConfig derive_config(ProtocolConfig base) const {
    base.f = f;
    base.c = c;
    return base;
  }
};

/// A staged (executed but not yet active) reconfiguration.
struct PendingReconfig {
  ReconfigDelta delta;
  SeqNum activation_seq = 0;  // first checkpoint boundary >= execution seq
  uint64_t target_epoch = 0;  // active().epoch + 1 at staging time
};

/// Tracks the active epoch, the staged reconfiguration, and the epoch history
/// of one replica. Owned by ReplicaRuntime; the ordering engines read the
/// active epoch for all quorum/primary/address math. Plain value type: it is
/// copied through recovery and serialized into checkpoint envelopes (the
/// membership section rides next to the reply cache, under the same local
/// WAL / authenticated-channel trust — see docs/reconfiguration.md).
class MembershipManager {
 public:
  MembershipManager() = default;

  /// Installs the genesis epoch (epoch 0). `members` must be non-empty and
  /// id-sorted entries are normalized here.
  void init_genesis(uint32_t f, uint32_t c, std::vector<ReplicaInfo> members);
  bool configured() const { return !epochs_.empty(); }

  const MembershipEpoch& active() const { return epochs_.back(); }
  /// Epoch governing slot `s`: the newest epoch with activated_at < s. Slots
  /// at the boundary itself still belong to the epoch that ordered them.
  const MembershipEpoch& epoch_for_seq(SeqNum s) const;
  bool is_member(ReplicaId r) const {
    return configured() && active().contains(r);
  }
  const std::vector<MembershipEpoch>& history() const { return epochs_; }

  const std::optional<PendingReconfig>& pending() const { return pending_; }
  /// Checkpoint boundary a staged reconfiguration activates at (0: none).
  SeqNum pending_activation() const {
    return pending_ ? pending_->activation_seq : 0;
  }

  /// Stages a delta executed at sequence `exec_seq` (checkpoint interval
  /// `interval`). Validation is deterministic — every replica accepts or
  /// rejects identically: adds must be new ids/nodes, removes must be current
  /// members, the resulting roster must satisfy |members| == 3f + 2c + 1 with
  /// f >= 1, and at most one reconfiguration may be in flight.
  bool stage(const ReconfigDelta& delta, SeqNum exec_seq, uint64_t interval);

  /// Activates the staged reconfiguration once `stable_seq` reaches its
  /// boundary. Returns true when a new epoch took effect.
  bool activate_up_to(SeqNum stable_seq);

  /// Membership section of the checkpoint snapshot envelope: the active epoch
  /// plus any staged reconfiguration. Empty when unconfigured.
  Bytes encode() const;
  /// Installs the state carried by a fetched/recovered envelope. Never
  /// regresses: a section whose epoch is older than the local active epoch is
  /// ignored. Malformed sections are ignored too (the section has no
  /// state-root covering it; a lying donor is bounded by quorum trust at the
  /// protocol layer). Returns true when anything was adopted.
  bool restore(ByteSpan section);

 private:
  /// Sizing-law validation shared by activation and restore: f >= 1,
  /// |members| == 3f + 2c + 1, id-sorted unique members.
  static bool epoch_well_formed(const MembershipEpoch& e);

  std::vector<MembershipEpoch> epochs_;  // activation order; back() is active
  std::optional<PendingReconfig> pending_;
};

}  // namespace sbft::runtime
