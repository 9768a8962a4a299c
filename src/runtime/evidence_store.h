// View-change evidence store, shared by both ordering engines.
//
// A replica must carry the strongest certificates it holds for every
// in-window slot into a view change: SBFT ships its slow-path prepare
// certificate (combined tau) and the final fast/slow full proofs inside
// ViewChangeMsg slot evidence (§V-D); PBFT re-ships its prepared
// certificates (with their blocks) inside PbftViewChangeMsg. Both engines
// used to keep this state inline in their per-slot protocol structs; the
// runtime owns it here so the retention rules live in one place and a
// sharded deployment does not duplicate them per group.
//
// Retention rules:
//  * prepare certificates: HIGHEST view wins — a later-view certificate for
//    the same slot supersedes an earlier one (the commit round is bound to
//    one certificate).
//  * full proofs (fast or slow): FIRST wins — proofs are final; any valid
//    one is as good as another.
//  * gc_through(stable): evidence at or below a stable checkpoint can never
//    be needed again.
//
// The store is volatile: a restarted incarnation rebuilds it from protocol
// traffic, exactly as the inline slot fields did.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>

#include "proto/message.h"

namespace sbft::runtime {

/// The evidence retained for one slot. Which fields are populated depends on
/// the engine: SBFT uses prepared_sig (tau) and the proof triples; PBFT uses
/// prepared_block (its view-change certificates carry the block itself).
struct SlotEvidenceRecord {
  // Prepare certificate (highest view wins).
  bool has_prepared = false;
  ViewNum prepared_view = 0;
  Digest prepared_digest{};
  Bytes prepared_sig;                   // SBFT: combined tau over slot_hash
  std::optional<SealedBlock> prepared_block;  // PBFT: block the certificate binds

  // Fast-path full proof (first wins).
  bool has_fast_proof = false;
  ViewNum fast_view = 0;
  Digest fast_digest{};
  Bytes fast_sig;  // combined sigma

  // Slow-path full proof (first wins).
  bool has_slow_proof = false;
  ViewNum slow_view = 0;
  Digest slow_digest{};
  Bytes slow_inner_sig;  // the tau certificate the proof wraps
  Bytes slow_sig;        // combined tau-tau
};

class EvidenceStore {
 public:
  /// Records a prepare certificate for slot s. A strictly older view never
  /// overwrites a newer one; an equal-or-newer view refreshes the record.
  /// Returns true when the record was stored.
  bool record_prepared(SeqNum s, ViewNum view, const Digest& digest, Bytes sig,
                       std::optional<SealedBlock> block = std::nullopt);
  /// Records the fast-path full proof for slot s; only the first is kept.
  /// Returns true when this call stored it.
  bool record_fast_proof(SeqNum s, ViewNum view, const Digest& digest,
                         Bytes sig);
  /// Records the slow-path full proof for slot s; only the first is kept.
  bool record_slow_proof(SeqNum s, ViewNum view, const Digest& digest,
                         Bytes inner_sig, Bytes sig);

  /// Evidence for slot s, or nullptr when none was recorded (or it was
  /// garbage-collected).
  const SlotEvidenceRecord* find(SeqNum s) const;

  /// Invokes fn(seq, record) for every slot in (lo, hi], ascending — the
  /// in-window span a view change must cover.
  void for_each_in(SeqNum lo, SeqNum hi,
                   const std::function<void(SeqNum, const SlotEvidenceRecord&)>&
                       fn) const;

  /// Drops every slot <= stable.
  void gc_through(SeqNum stable);
  void clear() { slots_.clear(); }
  size_t size() const { return slots_.size(); }

 private:
  std::map<SeqNum, SlotEvidenceRecord> slots_;
};

}  // namespace sbft::runtime
