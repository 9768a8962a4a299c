// Unit and property tests for the dual-mode safe-value computation (§V-G),
// the crux of SBFT's correctness argument (Theorem VI.1), and for the
// view-change quorum both engines share (runtime::EngineShell).
#include <gtest/gtest.h>

#include <set>

#include "core/crypto_context.h"
#include "core/view_change.h"
#include "crypto/sha256.h"
#include "harness/cluster.h"

namespace sbft::core {
namespace {

class ViewChangeFixture : public ::testing::Test {
 protected:
  ViewChangeFixture() {
    config_.f = 1;
    config_.c = 0;  // n = 4; fast quorum 4, slow quorum 3, f+c+1 = 2
    Rng rng(2024);
    keys_ = ClusterKeys::generate(rng, config_);
    // The genesis roster: replica r on node r-1, signer index r.
    for (ReplicaId r = 1; r <= config_.n(); ++r) epoch_.members.push_back({r, r - 1});
    epoch_.f = config_.f;
    epoch_.c = config_.c;
    verifiers_ = {keys_.sigma.verifier.get(), keys_.tau.verifier.get(), &epoch_,
                  [this](const ExecCertificate& cert) {
                    return keys_.pi.verifier->verify(cert.exec_digest(),
                                                     as_span(cert.pi_sig));
                  }};
  }

  Block make_block(const std::string& tag) {
    Block b;
    Request r;
    r.client = 100;
    r.timestamp = 1;
    r.op = to_bytes(tag);
    b.requests.push_back(std::move(r));
    return b;
  }

  /// tau(h) certificate over slot j at view v for `block`.
  Bytes make_tau(SeqNum j, ViewNum v, const Digest& digest) {
    Digest h = slot_hash(j, v, digest);
    std::vector<crypto::SignatureShare> shares;
    for (uint32_t i = 1; i <= config_.slow_quorum(); ++i) {
      shares.push_back({i, keys_.tau.signers[i - 1]->sign_share(h)});
    }
    auto sig = keys_.tau.verifier->combine(h, shares);
    return *sig;
  }

  Bytes make_tau_tau(const Bytes& tau_sig) {
    Digest d2 = commit_hash(crypto::sha256(as_span(tau_sig)));
    std::vector<crypto::SignatureShare> shares;
    for (uint32_t i = 1; i <= config_.slow_quorum(); ++i) {
      shares.push_back({i, keys_.tau.signers[i - 1]->sign_share(d2)});
    }
    return *keys_.tau.verifier->combine(d2, shares);
  }

  Bytes make_sigma(SeqNum j, ViewNum v, const Digest& digest) {
    Digest h = slot_hash(j, v, digest);
    std::vector<crypto::SignatureShare> shares;
    for (uint32_t i = 1; i <= config_.fast_quorum(); ++i) {
      shares.push_back({i, keys_.sigma.signers[i - 1]->sign_share(h)});
    }
    return *keys_.sigma.verifier->combine(h, shares);
  }

  Bytes sigma_share(ReplicaId i, SeqNum j, ViewNum v, const Digest& digest) {
    return keys_.sigma.signers[i - 1]->sign_share(slot_hash(j, v, digest));
  }

  ViewChangeMsg vc(ReplicaId sender, std::vector<SlotEvidence> slots) {
    ViewChangeMsg m;
    m.sender = sender;
    m.next_view = 1;
    m.ls = 0;
    m.slots = std::move(slots);
    return m;
  }

  SlotEvidence vote(ReplicaId sender, SeqNum j, ViewNum v, const Block& block) {
    SlotEvidence e;
    e.seq = j;
    e.fm_kind = FastEvidence::kVote;
    e.fm_view = v;
    e.fm_block_digest = block.digest();
    e.fm_sig = sigma_share(sender, j, v, block.digest());
    e.block = block;
    return e;
  }

  SlotEvidence prepare_cert(SeqNum j, ViewNum v, const Block& block) {
    SlotEvidence e;
    e.seq = j;
    e.lm_kind = SlowEvidence::kPrepareCert;
    e.lm_view = v;
    e.lm_block_digest = block.digest();
    e.lm_sig = make_tau(j, v, block.digest());
    e.block = block;
    return e;
  }

  ProtocolConfig config_;
  ClusterKeys keys_;
  runtime::MembershipEpoch epoch_;
  ViewChangeVerifiers verifiers_;
};

TEST_F(ViewChangeFixture, EmptyEvidenceYieldsNoop) {
  std::vector<ViewChangeMsg> proofs = {vc(1, {}), vc(2, {}), vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kNoop);
  EXPECT_EQ(safe.block_digest, null_block().digest());
}

TEST_F(ViewChangeFixture, FullSlowProofDecides) {
  Block block = make_block("slow-decided");
  SlotEvidence e;
  e.seq = 1;
  e.lm_kind = SlowEvidence::kFullProof;
  e.lm_view = 0;
  e.lm_block_digest = block.digest();
  e.lm_inner_sig = make_tau(1, 0, block.digest());
  e.lm_sig = make_tau_tau(e.lm_inner_sig);
  e.block = block;
  std::vector<ViewChangeMsg> proofs = {vc(1, {e}), vc(2, {}), vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kDecided);
  EXPECT_FALSE(safe.decided_fast);
  EXPECT_EQ(safe.block_digest, block.digest());
  ASSERT_TRUE(safe.block.has_value());
}

TEST_F(ViewChangeFixture, FullFastProofDecides) {
  Block block = make_block("fast-decided");
  SlotEvidence e;
  e.seq = 1;
  e.fm_kind = FastEvidence::kFullProof;
  e.fm_view = 0;
  e.fm_block_digest = block.digest();
  e.fm_sig = make_sigma(1, 0, block.digest());
  e.block = block;
  std::vector<ViewChangeMsg> proofs = {vc(1, {e}), vc(2, {}), vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kDecided);
  EXPECT_TRUE(safe.decided_fast);
  EXPECT_EQ(safe.block_digest, block.digest());
}

TEST_F(ViewChangeFixture, PrepareCertificateAdopted) {
  Block block = make_block("prepared");
  std::vector<ViewChangeMsg> proofs = {vc(1, {prepare_cert(1, 0, block)}),
                                       vc(2, {}), vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kAdopt);
  EXPECT_EQ(safe.block_digest, block.digest());
}

TEST_F(ViewChangeFixture, FastVotesAdoptedWhenQuorum) {
  Block block = make_block("fast-votes");
  // f+c+1 = 2 votes suffice.
  std::vector<ViewChangeMsg> proofs = {vc(1, {vote(1, 1, 0, block)}),
                                       vc(2, {vote(2, 1, 0, block)}), vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kAdopt);
  EXPECT_EQ(safe.block_digest, block.digest());
}

TEST_F(ViewChangeFixture, SingleVoteInsufficient) {
  Block block = make_block("lonely-vote");
  std::vector<ViewChangeMsg> proofs = {vc(1, {vote(1, 1, 0, block)}), vc(2, {}),
                                       vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kNoop);
}

TEST_F(ViewChangeFixture, SlowCertPreferredOnViewTie) {
  // The paper's tie rule (v* >= v-hat prefers the prepare certificate): this
  // is what makes the two concurrent modes safe together.
  Block slow_block = make_block("slow-value");
  Block fast_block = make_block("fast-value");
  std::vector<ViewChangeMsg> proofs = {
      vc(1, {[&] {
         SlotEvidence e = prepare_cert(1, 0, slow_block);
         // Same sender also voted fast for the other block at the same view.
         e.fm_kind = FastEvidence::kVote;
         e.fm_view = 0;
         e.fm_block_digest = fast_block.digest();
         e.fm_sig = sigma_share(1, 1, 0, fast_block.digest());
         return e;
       }()}),
      vc(2, {vote(2, 1, 0, fast_block)}),
      vc(3, {vote(3, 1, 0, fast_block)}),
  };
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kAdopt);
  EXPECT_EQ(safe.block_digest, slow_block.digest());  // slow wins the tie
}

TEST_F(ViewChangeFixture, HigherFastViewBeatsLowerSlowCert) {
  Block old_slow = make_block("old-slow");
  Block new_fast = make_block("new-fast");
  std::vector<ViewChangeMsg> proofs = {
      vc(1, {prepare_cert(1, 0, old_slow)}),
      vc(2, {vote(2, 1, 3, new_fast)}),
      vc(3, {vote(3, 1, 3, new_fast)}),
  };
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kAdopt);
  EXPECT_EQ(safe.block_digest, new_fast.digest());
}

TEST_F(ViewChangeFixture, AmbiguousFastValueInvalidatesVhat) {
  // Two different values each with f+c+1 votes at the same view: v-hat is
  // ambiguous and must be discarded (§V-G step 2).
  Block a = make_block("candidate-a");
  Block b = make_block("candidate-b");
  std::vector<ViewChangeMsg> proofs = {
      vc(1, {vote(1, 1, 2, a)}),
      vc(2, {vote(2, 1, 2, a)}),
      vc(3, {vote(3, 1, 2, b)}),
      vc(4, {vote(4, 1, 2, b)}),
  };
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kNoop);
}

TEST_F(ViewChangeFixture, ForgedCertificateIgnored) {
  Block block = make_block("forged");
  SlotEvidence e = prepare_cert(1, 0, block);
  e.lm_sig[0] ^= 0x55;  // corrupt the tau signature
  std::vector<ViewChangeMsg> proofs = {vc(1, {e}), vc(2, {}), vc(3, {})};
  SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
  EXPECT_EQ(safe.kind, SafeValue::Kind::kNoop);
}

TEST_F(ViewChangeFixture, ValidateViewChangeRejectsBadEvidence) {
  Block block = make_block("invalid");
  SlotEvidence e = vote(2, 1, 0, block);  // share signed by replica 2
  ViewChangeMsg m = vc(1, {e});           // but claimed by sender 1
  EXPECT_FALSE(validate_view_change(config_, verifiers_, m));
  ViewChangeMsg ok = vc(2, {e});
  EXPECT_TRUE(validate_view_change(config_, verifiers_, ok));
  EXPECT_FALSE(validate_view_change(config_, verifiers_, vc(5, {})));  // not a member
}

TEST_F(ViewChangeFixture, ValidateViewChangeRejectsDuplicateSlots) {
  Block block = make_block("dup");
  ViewChangeMsg m = vc(1, {vote(1, 1, 0, block), vote(1, 1, 0, block)});
  EXPECT_FALSE(validate_view_change(config_, verifiers_, m));
}

// Property: whenever a value *could have committed* in the old view (slow
// certificate present, or a fast quorum of votes), the safe value is that
// value — never a no-op, never a different value. Randomized over evidence
// layouts.
TEST_F(ViewChangeFixture, PossiblyCommittedValueAlwaysProtected) {
  Rng rng(4242);
  Block committed = make_block("the-committed-value");
  Block other = make_block("some-other-value");
  for (int round = 0; round < 50; ++round) {
    // The committed value prepared at view vp; noise votes at views < vp.
    ViewNum vp = 1 + rng.below(4);
    std::vector<ViewChangeMsg> proofs;
    proofs.push_back(vc(1, {prepare_cert(1, vp, committed)}));
    for (ReplicaId sender = 2; sender <= 3; ++sender) {
      std::vector<SlotEvidence> slots;
      if (rng.chance(0.7)) {
        ViewNum noise_view = rng.below(vp);  // strictly older than vp
        slots.push_back(vote(sender, 1, noise_view, other));
      }
      proofs.push_back(vc(sender, slots));
    }
    SafeValue safe = compute_safe_value(config_, verifiers_, 1, proofs);
    EXPECT_NE(safe.kind, SafeValue::Kind::kNoop) << "round " << round;
    EXPECT_EQ(safe.block_digest, committed.digest()) << "round " << round;
  }
}

TEST_F(ViewChangeFixture, SelectStableSeqIgnoresUnprovenCheckpoints) {
  ViewChangeMsg bogus = vc(1, {});
  bogus.ls = 128;  // claims a checkpoint without a pi certificate
  std::vector<ViewChangeMsg> proofs = {bogus, vc(2, {}), vc(3, {})};
  EXPECT_EQ(select_stable_seq(config_, verifiers_, proofs), 0u);
}

TEST_F(ViewChangeFixture, SelectStableSeqAcceptsProvenCheckpoint) {
  ExecCertificate cert;
  cert.seq = 128;
  cert.state_root = crypto::sha256("state");
  cert.ops_root = crypto::sha256("ops");
  cert.prev_exec_digest = crypto::sha256("prev");
  Digest d = cert.exec_digest();
  std::vector<crypto::SignatureShare> shares;
  for (uint32_t i = 1; i <= config_.exec_quorum(); ++i) {
    shares.push_back({i, keys_.pi.signers[i - 1]->sign_share(d)});
  }
  cert.pi_sig = *keys_.pi.verifier->combine(d, shares);
  ViewChangeMsg m = vc(1, {});
  m.ls = 128;
  m.checkpoint = cert;
  std::vector<ViewChangeMsg> proofs = {m, vc(2, {}), vc(3, {})};
  EXPECT_EQ(select_stable_seq(config_, verifiers_, proofs), 128u);
  EXPECT_TRUE(validate_view_change(config_, verifiers_, m));
}

// ---------------------------------------------------------------------------
// The view-change quorum, on both engines: view changes and new views in the
// engine's wire type, without evidence, injected into a 4-replica cluster
// (f = 1, no clients). f+1 = 2 view changes make a replica join; a new view
// needs 2f+1 = 3. View v's primary is replica v+1.

using harness::ProtocolKind;

class ViewChangeQuorum : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  ViewChangeQuorum() : cluster_(options()) { cluster_.run_for(10'000); }

  static harness::ClusterOptions options() {
    harness::ClusterOptions opts;
    opts.kind = GetParam();
    opts.f = 1;
    opts.num_clients = 0;
    opts.topology = sim::lan_topology();
    opts.seed = 99;
    opts.tracing = true;
    return opts;
  }

  bool sbft() const { return GetParam() == ProtocolKind::kSbft; }

  MessagePtr view_change(ReplicaId sender, ViewNum next_view) const {
    if (sbft()) return make_message(ViewChangeMsg{sender, next_view});
    return make_message(PbftViewChangeMsg{sender, next_view});
  }

  /// A new view for `view` whose proofs are view changes (sender, next view).
  MessagePtr new_view(ViewNum view,
                      const std::vector<std::pair<ReplicaId, ViewNum>>& proofs) const {
    if (sbft()) {
      NewViewMsg nv{view, {}};
      for (auto [sender, next] : proofs) nv.proofs.push_back({sender, next});
      return make_message(std::move(nv));
    }
    PbftNewViewMsg nv{view, {}};
    for (auto [sender, next] : proofs) nv.proofs.push_back({sender, next});
    return make_message(std::move(nv));
  }

  /// Delivers `msg` from replica `from`'s node to replica `to` and runs 50 ms.
  void inject(ReplicaId from, ReplicaId to, MessagePtr msg) {
    cluster_.network().inject(cluster_.replica(from).node(),
                              cluster_.replica(to).node(), std::move(msg));
    cluster_.run_for(50'000);
  }

  harness::Cluster cluster_;
};

TEST_P(ViewChangeQuorum, ViewChangesClaimingOtherReplicasDoNotCount) {
  // Replica 1's node sends replica 2 view changes for view 1 that claim to
  // come from replicas 3 and 4. Each counts only under the id of the replica
  // that sent it, so replica 2 does not join (from 3's and 4's own nodes it
  // does: NextPrimarySendsTheNewViewInItsSession).
  for (ReplicaId claimed : {3u, 4u}) inject(1, 2, view_change(claimed, 1));
  EXPECT_EQ(cluster_.replica(2).view_changes(), 0u);
  EXPECT_EQ(cluster_.replica(2).view(), 0u);
}

TEST_P(ViewChangeQuorum, NextPrimarySendsTheNewViewInItsSession) {
  // Replicas 3 and 4 ask replica 2, view 1's primary, for view 1. It joins,
  // its own view change completes the 2f+1 quorum, and it sends the new view
  // at once: its newview.sent instant carries the session's target as id.
  for (ReplicaId sender : {3u, 4u}) inject(sender, 2, view_change(sender, 1));
  EXPECT_EQ(cluster_.replica(2).view_changes(), 1u);
  EXPECT_EQ(cluster_.replica(2).view(), 1u);
  size_t sent = 0;
  for (const obs::TraceEvent& e : cluster_.replica(2).tracer()->events()) {
    if (std::string_view(e.name) != obs::ev::kNewViewSent) continue;
    ++sent;
    EXPECT_EQ(e.span, 1u);
    EXPECT_EQ(e.view, 1u);
  }
  EXPECT_EQ(sent, 1u);
  // The new view reaches the backups, which enter view 1 too.
  for (ReplicaId r : {1u, 3u, 4u}) {
    EXPECT_EQ(cluster_.replica(r).view(), 1u) << "replica " << r;
  }
}

TEST_P(ViewChangeQuorum, NewViewFromANonPrimaryIsIgnored) {
  // A well-formed new view for view 1 from replica 3's node leaves replica 4
  // in view 0; the same message from replica 2's node, view 1's primary,
  // moves it to view 1.
  auto nv = new_view(1, {{1, 1}, {2, 1}, {3, 1}});
  inject(3, 4, nv);
  EXPECT_EQ(cluster_.replica(4).view(), 0u);

  inject(2, 4, nv);
  EXPECT_EQ(cluster_.replica(4).view(), 1u);
}

TEST_P(ViewChangeQuorum, NewViewWithoutAQuorumOfDistinctMembersIsIgnored) {
  // From view 1's primary: proofs that repeat a sender, name another view,
  // name a non-member, or number fewer than 2f+1 leave replica 4 in view 0.
  // Replica 5 is not a member of the 4-replica roster.
  inject(2, 4, new_view(1, {{2, 1}, {2, 1}, {2, 1}}));
  inject(2, 4, new_view(1, {{2, 1}, {3, 1}, {4, 2}}));
  inject(2, 4, new_view(1, {{2, 1}, {3, 1}, {5, 1}}));
  inject(2, 4, new_view(1, {{2, 1}, {3, 1}}));
  EXPECT_EQ(cluster_.replica(4).view(), 0u);

  inject(2, 4, new_view(1, {{2, 1}, {3, 1}, {4, 1}}));
  EXPECT_EQ(cluster_.replica(4).view(), 1u);
}

TEST_P(ViewChangeQuorum, JoinsTheHighestViewFPlusOneMembersAskFor) {
  // Replicas 3 and 4 ask replica 1 for view 2, and it joins. A new view for
  // view 1 from replica 2 then moves it to view 1, which keeps the view
  // changes for view 2. One view change for view 3 is not f+1, but it
  // re-applies the join rule, and replica 1 rejoins view 2.
  for (ReplicaId sender : {3u, 4u}) inject(sender, 1, view_change(sender, 2));
  EXPECT_EQ(cluster_.replica(1).view_changes(), 1u);
  EXPECT_EQ(cluster_.replica(1).view(), 0u);

  inject(2, 1, new_view(1, {{2, 1}, {3, 1}, {4, 1}}));
  EXPECT_EQ(cluster_.replica(1).view(), 1u);
  EXPECT_EQ(cluster_.replica(1).view_changes(), 1u);

  inject(4, 1, view_change(4, 3));
  EXPECT_EQ(cluster_.replica(1).view_changes(), 2u);
  EXPECT_EQ(cluster_.replica(1).view(), 1u);
}

TEST_P(ViewChangeQuorum, PrePrepareBeforeItsNewViewIsAccepted) {
  // Replicas 2 and 3 pull replica 4 into a view change to view 1. View 1's
  // primary, replica 2, proposes slot 1 before replica 4 has its new view;
  // replica 4 keeps the pre-prepare and accepts it once it enters view 1.
  for (ReplicaId sender : {2u, 3u}) inject(sender, 4, view_change(sender, 1));
  ASSERT_EQ(cluster_.replica(4).view_changes(), 1u);
  Block block;
  Request req;
  req.client = 100;
  req.timestamp = 1;
  req.op = to_bytes("early");
  block.requests.push_back(std::move(req));
  inject(2, 4, make_message(PrePrepareMsg{1, 1, block}));
  // A pre-prepare of view 1 from a replica that is not its primary is not
  // kept.
  inject(3, 4, make_message(PrePrepareMsg{2, 1, block}));
  inject(2, 4, new_view(1, {{2, 1}, {3, 1}, {4, 1}}));
  ASSERT_EQ(cluster_.replica(4).view(), 1u);

  std::set<SeqNum> accepted;
  for (const obs::TraceEvent& e : cluster_.replica(4).tracer()->events()) {
    if (std::string_view(e.name) == obs::ev::kSlot &&
        e.phase == obs::EventPhase::kBegin && e.view == 1) {
      accepted.insert(e.seq);
    }
  }
  EXPECT_EQ(accepted, std::set<SeqNum>{1});
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ViewChangeQuorum,
                         ::testing::Values(ProtocolKind::kSbft, ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return std::string(harness::protocol_name(info.param));
                         });

}  // namespace
}  // namespace sbft::core
