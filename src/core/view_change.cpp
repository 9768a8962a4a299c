#include "core/view_change.h"

#include <algorithm>
#include <map>
#include <set>

#include "crypto/sha256.h"

namespace sbft::core {

namespace {

/// Digest commit-round hash for a full slow proof: the tau(tau(h)) round
/// signs commit_hash(SHA256(tau(h) bytes)).
Digest slow_round_digest(const Bytes& tau_sig) {
  return commit_hash(crypto::sha256(as_span(tau_sig)));
}

/// Threshold-signer index of `sender`: its epoch rank + 1 (per-epoch schemes
/// index members by rank). 0 = not a member (evidence invalid).
uint32_t signer_index(const ViewChangeVerifiers& verifiers, ReplicaId sender) {
  int rank = verifiers.epoch->rank_of(sender);
  return rank < 0 ? 0 : static_cast<uint32_t>(rank) + 1;
}

bool validate_slot_evidence(const ViewChangeVerifiers& verifiers, ReplicaId sender,
                            const SlotEvidence& e) {
  switch (e.lm_kind) {
    case SlowEvidence::kNone:
      break;
    case SlowEvidence::kPrepareCert: {
      Digest h = slot_hash(e.seq, e.lm_view, e.lm_block_digest);
      if (!verifiers.tau->verify(h, as_span(e.lm_sig))) return false;
      break;
    }
    case SlowEvidence::kFullProof: {
      Digest h = slot_hash(e.seq, e.lm_view, e.lm_block_digest);
      if (!verifiers.tau->verify(h, as_span(e.lm_inner_sig))) return false;
      if (!verifiers.tau->verify(slow_round_digest(e.lm_inner_sig), as_span(e.lm_sig)))
        return false;
      break;
    }
    default:
      return false;
  }
  switch (e.fm_kind) {
    case FastEvidence::kNone:
      break;
    case FastEvidence::kVote: {
      uint32_t signer = signer_index(verifiers, sender);
      if (signer == 0) return false;
      Digest h = slot_hash(e.seq, e.fm_view, e.fm_block_digest);
      if (!verifiers.sigma->verify_share(signer, h, as_span(e.fm_sig))) return false;
      break;
    }
    case FastEvidence::kFullProof: {
      Digest h = slot_hash(e.seq, e.fm_view, e.fm_block_digest);
      if (!verifiers.sigma->verify(h, as_span(e.fm_sig))) return false;
      break;
    }
    default:
      return false;
  }
  return true;
}

bool validate_checkpoint(const ViewChangeVerifiers& verifiers, SeqNum ls,
                         const ExecCertificate& cert) {
  if (ls == 0) return true;  // genesis needs no proof
  if (cert.seq != ls) return false;
  return verifiers.verify_checkpoint(cert);
}

}  // namespace

bool validate_view_change(const ProtocolConfig& config,
                          const ViewChangeVerifiers& verifiers,
                          const ViewChangeMsg& msg) {
  if (!verifiers.epoch->contains(msg.sender)) return false;
  if (!validate_checkpoint(verifiers, msg.ls, msg.checkpoint)) return false;
  std::set<SeqNum> seen;
  for (const SlotEvidence& e : msg.slots) {
    if (!seen.insert(e.seq).second) return false;  // one evidence per slot
    if (e.seq <= msg.ls || e.seq > msg.ls + config.win) return false;
    if (!validate_slot_evidence(verifiers, msg.sender, e)) return false;
  }
  return true;
}

SeqNum select_stable_seq(const ProtocolConfig& /*config*/,
                         const ViewChangeVerifiers& verifiers,
                         const std::vector<ViewChangeMsg>& proofs) {
  SeqNum best = 0;
  for (const ViewChangeMsg& vc : proofs) {
    if (vc.ls > best && validate_checkpoint(verifiers, vc.ls, vc.checkpoint))
      best = vc.ls;
  }
  return best;
}

SealedBlock null_block() { return SealedBlock{}; }

SafeValue compute_safe_value(const ProtocolConfig& config,
                             const ViewChangeVerifiers& verifiers, SeqNum j,
                             const std::vector<ViewChangeMsg>& proofs) {
  SafeValue out;

  // Collect the evidence for slot j, one entry per sender, plus any attached
  // blocks (indexed by their true digest).
  struct Entry {
    ReplicaId sender;
    const SlotEvidence* e;
  };
  std::vector<Entry> entries;
  std::map<Digest, SealedBlock, std::less<>> blocks_by_digest;
  for (const ViewChangeMsg& vc : proofs) {
    for (const SlotEvidence& e : vc.slots) {
      if (e.seq != j) continue;
      entries.push_back({vc.sender, &e});
      if (e.block) blocks_by_digest.emplace(e.block->digest(), *e.block);
      break;
    }
  }
  auto attach_block = [&](const Digest& d) -> std::optional<SealedBlock> {
    auto it = blocks_by_digest.find(d);
    if (it == blocks_by_digest.end()) return std::nullopt;
    return it->second;
  };

  // (0) A full proof in either mode decides the slot outright.
  for (const Entry& entry : entries) {
    const SlotEvidence& e = *entry.e;
    if (e.lm_kind == SlowEvidence::kFullProof &&
        validate_slot_evidence(verifiers, entry.sender, e)) {
      out.kind = SafeValue::Kind::kDecided;
      out.block_digest = e.lm_block_digest;
      out.block = attach_block(e.lm_block_digest);
      out.decided_proof = e.lm_sig;
      out.decided_inner = e.lm_inner_sig;
      out.decided_fast = false;
      out.evidence_view = e.lm_view;
      return out;
    }
    if (e.fm_kind == FastEvidence::kFullProof &&
        validate_slot_evidence(verifiers, entry.sender, e)) {
      out.kind = SafeValue::Kind::kDecided;
      out.block_digest = e.fm_block_digest;
      out.block = attach_block(e.fm_block_digest);
      out.decided_proof = e.fm_sig;
      out.decided_fast = true;
      out.evidence_view = e.fm_view;
      return out;
    }
  }

  // (1) v*: the highest view carrying a valid prepare certificate tau(h).
  int64_t v_star = -1;
  Digest req_star{};
  for (const Entry& entry : entries) {
    const SlotEvidence& e = *entry.e;
    if (e.lm_kind != SlowEvidence::kPrepareCert) continue;
    if (!validate_slot_evidence(verifiers, entry.sender, e)) continue;
    if (static_cast<int64_t>(e.lm_view) > v_star) {
      v_star = static_cast<int64_t>(e.lm_view);
      req_star = e.lm_block_digest;
    }
  }

  // (2) v-hat: the highest view v for which some value req' is "fast": at
  // least f+c+1 sign-share votes for req' with views >= v. For each candidate
  // value, that maximum is the (f+c+1)-th highest vote view.
  const size_t fast_need = static_cast<size_t>(config.f + config.c + 1);
  std::map<Digest, std::vector<int64_t>, std::less<>> votes;  // digest -> views
  for (const Entry& entry : entries) {
    const SlotEvidence& e = *entry.e;
    if (e.fm_kind != FastEvidence::kVote) continue;
    if (!validate_slot_evidence(verifiers, entry.sender, e)) continue;
    votes[e.fm_block_digest].push_back(static_cast<int64_t>(e.fm_view));
  }
  int64_t v_hat = -1;
  Digest req_hat{};
  bool v_hat_tie = false;
  for (auto& [digest, views] : votes) {
    if (views.size() < fast_need) continue;
    std::sort(views.begin(), views.end(), std::greater<>());
    int64_t candidate = views[fast_need - 1];
    if (candidate > v_hat) {
      v_hat = candidate;
      req_hat = digest;
      v_hat_tie = false;
    } else if (candidate == v_hat && !(digest == req_hat)) {
      v_hat_tie = true;
    }
  }
  if (v_hat_tie) v_hat = -1;  // §V-G: ambiguous fast value invalidates v-hat

  // (3) Choose, preferring the slow certificate on ties (v* >= v-hat) — the
  // rule that makes the dual-mode protocol safe (proof of Lemma VI.2).
  if (v_star >= v_hat && v_star > -1) {
    out.kind = SafeValue::Kind::kAdopt;
    out.block_digest = req_star;
    out.block = attach_block(req_star);
    out.evidence_view = static_cast<ViewNum>(v_star);
    return out;
  }
  if (v_hat > v_star) {
    out.kind = SafeValue::Kind::kAdopt;
    out.block_digest = req_hat;
    out.block = attach_block(req_hat);
    out.evidence_view = static_cast<ViewNum>(v_hat);
    return out;
  }
  out.kind = SafeValue::Kind::kNoop;
  out.block = null_block();
  out.block_digest = out.block->digest();
  return out;
}

}  // namespace sbft::core
