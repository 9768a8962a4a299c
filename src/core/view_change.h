// Dual-mode view-change logic (§V-G), implemented as pure functions over a
// fixed set of view-change messages so the safe-value rule — the crux of the
// paper's correctness argument (Lemmas VI.2/VI.3) — is directly unit- and
// property-testable.
//
// Given the set I of 2f+2c+1 view-change messages fixed by the new-view
// message, every replica deterministically computes, per slot j:
//   * kDecided  — a full proof (sigma(h) or tau(tau(h))) appears in I: the
//                 value is committed; adopt-and-commit it.
//   * kAdopt    — the safe value induced by the highest-view evidence:
//                 v* (highest prepare certificate) vs v-hat (highest view at
//                 which some value is "fast": >= f+c+1 matching sign-share
//                 votes with views >= v-hat). Ties prefer the slow-path
//                 certificate (v* >= v-hat), which is what makes the two
//                 concurrent commit modes safe together.
//   * kNoop     — no protected value; propose the null operation.
#pragma once

#include <optional>
#include <vector>

#include "core/crypto_context.h"
#include "proto/config.h"
#include "proto/message.h"

namespace sbft::core {

struct SafeValue {
  enum class Kind { kDecided, kAdopt, kNoop };
  Kind kind = Kind::kNoop;
  Digest block_digest{};        // meaningful for kDecided / kAdopt
  std::optional<SealedBlock> block;  // attached if any usable evidence carried it
  // For kDecided: the proof that allows immediate commit.
  Bytes decided_proof;          // sigma(h) or tau(tau(h))
  Bytes decided_inner;          // the inner tau(h) when decided via slow proof
  bool decided_fast = false;    // true if decided via sigma(h)
  ViewNum evidence_view = 0;    // view binding of the decided/adopted h
};

/// Validates one view-change message: checkpoint certificate and every slot
/// evidence signature. Invalid messages must be excluded from I.
bool validate_view_change(const ProtocolConfig& config,
                          const ViewChangeVerifiers& verifiers,
                          const ViewChangeMsg& msg);

/// Highest stable sequence number proven inside I (max valid checkpoint).
SeqNum select_stable_seq(const ProtocolConfig& config,
                         const ViewChangeVerifiers& verifiers,
                         const std::vector<ViewChangeMsg>& proofs);

/// The safe value for slot j. `proofs` must already be validated; evidence
/// signatures are re-checked here so a forged certificate can never steer
/// the outcome.
SafeValue compute_safe_value(const ProtocolConfig& config,
                             const ViewChangeVerifiers& verifiers, SeqNum j,
                             const std::vector<ViewChangeMsg>& proofs);

/// An empty decision block (the "null" no-op proposal).
SealedBlock null_block();

}  // namespace sbft::core
