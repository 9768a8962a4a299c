// Collector selection and share sets (§V-B), and protocol-configuration
// arithmetic.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/crypto_context.h"
#include "core/share_set.h"

namespace sbft::core {
namespace {

ProtocolConfig make_config(uint32_t f, uint32_t c) {
  ProtocolConfig config;
  config.f = f;
  config.c = c;
  return config;
}

/// The genesis epoch of an (f, c) cluster: replicas 1..n on nodes 0..n-1.
runtime::MembershipEpoch genesis(uint32_t f, uint32_t c) {
  runtime::MembershipEpoch epoch;
  epoch.f = f;
  epoch.c = c;
  for (ReplicaId r = 1; r <= make_config(f, c).n(); ++r) {
    epoch.members.push_back({r, r - 1});
  }
  return epoch;
}

TEST(Config, ClusterSizing) {
  EXPECT_EQ(make_config(1, 0).n(), 4u);
  EXPECT_EQ(make_config(1, 1).n(), 6u);
  EXPECT_EQ(make_config(2, 0).n(), 7u);
  EXPECT_EQ(make_config(64, 8).n(), 209u);  // the paper's deployment
  EXPECT_EQ(make_config(64, 0).n(), 193u);
}

TEST(Config, QuorumSizes) {
  ProtocolConfig config = make_config(64, 8);
  EXPECT_EQ(config.fast_quorum(), 3 * 64 + 8 + 1);       // sigma: 201
  EXPECT_EQ(config.slow_quorum(), 2 * 64 + 8 + 1);       // tau: 137
  EXPECT_EQ(config.exec_quorum(), 64 + 1);               // pi: 65
  EXPECT_EQ(config.view_change_quorum(), 2 * 64 + 2 * 8 + 1);  // 145
}

TEST(Config, QuorumIntersectionProperties) {
  // Any two slow quorums intersect in at least f+1 replicas (so at least one
  // honest) — the classic safety requirement, for several sizings.
  for (uint32_t f : {1u, 2u, 8u, 64u}) {
    for (uint32_t c : {0u, 1u, 8u}) {
      ProtocolConfig config = make_config(f, c);
      uint32_t n = config.n();
      // |Q1| + |Q2| - n >= f + 1
      EXPECT_GE(2 * config.slow_quorum(), n + f + 1) << "f=" << f << " c=" << c;
      // A fast quorum and a view-change quorum intersect in >= f+c+1.
      EXPECT_GE(config.fast_quorum() + config.view_change_quorum(), n + f + c + 1);
    }
  }
}

TEST(Config, PrimaryRotatesRoundRobin) {
  ProtocolConfig config = make_config(2, 1);  // n = 9
  std::set<ReplicaId> seen;
  for (ViewNum v = 0; v < config.n(); ++v) {
    ReplicaId p = config.primary_of(v);
    EXPECT_GE(p, 1u);
    EXPECT_LE(p, config.n());
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), config.n());  // every replica gets a turn
  EXPECT_EQ(config.primary_of(0), config.primary_of(config.n()));
}

TEST(Collectors, CorrectCountAndNoPrimary) {
  runtime::MembershipEpoch epoch = genesis(4, 2);  // n = 17, c+1 = 3 collectors
  for (SeqNum s = 1; s <= 50; ++s) {
    auto collectors = c_collectors(epoch, s, 0);
    ASSERT_EQ(collectors.size(), 3u);
    std::set<ReplicaId> unique(collectors.begin(), collectors.end());
    EXPECT_EQ(unique.size(), collectors.size()) << "duplicates at s=" << s;
    for (ReplicaId r : collectors) {
      EXPECT_NE(r, epoch.primary_of(0)) << "primary drafted as C-collector";
      EXPECT_GE(r, 1u);
      EXPECT_LE(r, epoch.n());
    }
  }
}

TEST(Collectors, DeterministicAcrossCalls) {
  runtime::MembershipEpoch epoch = genesis(8, 1);
  EXPECT_EQ(c_collectors(epoch, 42, 3), c_collectors(epoch, 42, 3));
  EXPECT_EQ(e_collectors(epoch, 42, 3), e_collectors(epoch, 42, 3));
}

TEST(Collectors, VaryWithSequenceAndView) {
  runtime::MembershipEpoch epoch = genesis(8, 2);
  // Across a window of sequence numbers the sets must differ somewhere
  // (load balancing, §V: "By choosing a different C-collector group for each
  // decision block, we balance the load over all replicas").
  bool seq_varies = false, view_varies = false;
  auto base = c_collectors(epoch, 1, 0);
  for (SeqNum s = 2; s <= 20; ++s) seq_varies |= c_collectors(epoch, s, 0) != base;
  for (ViewNum v = 1; v <= 20; ++v) view_varies |= c_collectors(epoch, 1, v) != base;
  EXPECT_TRUE(seq_varies);
  EXPECT_TRUE(view_varies);
}

TEST(Collectors, CDrawsDifferFromEDraws) {
  runtime::MembershipEpoch epoch = genesis(8, 2);
  bool differ = false;
  for (SeqNum s = 1; s <= 20; ++s) {
    differ |= c_collectors(epoch, s, 0) != e_collectors(epoch, s, 0);
  }
  EXPECT_TRUE(differ);  // independent pseudo-random draws
}

TEST(Collectors, LoadSpreadsAcrossReplicas) {
  // Over many sequence numbers every non-primary replica should serve as a
  // collector a comparable number of times.
  runtime::MembershipEpoch epoch = genesis(4, 1);  // n = 15, 2 collectors per slot
  std::map<ReplicaId, int> load;
  const int kSlots = 3000;
  for (SeqNum s = 1; s <= kSlots; ++s) {
    for (ReplicaId r : c_collectors(epoch, s, 0)) ++load[r];
  }
  double expected = 2.0 * kSlots / (epoch.n() - 1);
  for (ReplicaId r = 1; r <= epoch.n(); ++r) {
    if (r == epoch.primary_of(0)) {
      EXPECT_EQ(load.count(r), 0u);
      continue;
    }
    EXPECT_GT(load[r], expected * 0.7) << "replica " << r << " underused";
    EXPECT_LT(load[r], expected * 1.3) << "replica " << r << " overused";
  }
}

TEST(Collectors, CommitCollectorsAppendPrimaryLast) {
  runtime::MembershipEpoch epoch = genesis(4, 2);
  for (ViewNum v : {0ull, 1ull, 7ull}) {
    auto collectors = commit_collectors(epoch, 5, v);
    ASSERT_EQ(collectors.size(), epoch.num_collectors() + 1);
    EXPECT_EQ(collectors.back(), epoch.primary_of(v));  // §V-E: primary last
    auto fallback_e = fallback_e_collectors(epoch, 5, v);
    EXPECT_EQ(fallback_e.back(), epoch.primary_of(v));
  }
}

TEST(Collectors, DrawOnlyMembersOfASparseRoster) {
  // After removals the member ids are no longer 1..n; the draw walks the
  // epoch's member list and never drafts the view's primary.
  runtime::MembershipEpoch epoch = genesis(1, 1);
  epoch.members = {{2, 1}, {3, 2}, {5, 4}, {6, 5}, {8, 7}, {9, 8}};
  for (SeqNum s = 1; s <= 50; ++s) {
    for (ViewNum v = 0; v < epoch.n(); ++v) {
      auto collectors = commit_collectors(epoch, s, v);
      ASSERT_EQ(collectors.size(), epoch.num_collectors() + 1);
      EXPECT_EQ(collectors.back(), epoch.primary_of(v));
      for (size_t i = 0; i + 1 < collectors.size(); ++i) {
        EXPECT_TRUE(epoch.contains(collectors[i])) << collectors[i];
        EXPECT_NE(collectors[i], epoch.primary_of(v));
      }
    }
  }
}

TEST(Collectors, RankLookup) {
  std::vector<ReplicaId> collectors = {7, 3, 9};
  EXPECT_EQ(collector_rank(collectors, 7), 0);
  EXPECT_EQ(collector_rank(collectors, 3), 1);
  EXPECT_EQ(collector_rank(collectors, 9), 2);
  EXPECT_EQ(collector_rank(collectors, 1), -1);
}

TEST(Collectors, SmallClusterClamp) {
  // c+1 collectors must clamp to the available non-primary replicas.
  runtime::MembershipEpoch epoch = genesis(1, 1);  // n = 6, c+1 = 2 of 5 backups
  auto collectors = c_collectors(epoch, 1, 0);
  EXPECT_EQ(collectors.size(), 2u);
}

std::vector<ReplicaId> replicas_of(const ShareSet& set) {
  std::vector<ReplicaId> out;
  for (size_t i = 0; i < set.size(); ++i) out.push_back(set.replica(i));
  return out;
}

TEST(ShareSet, ReadsSharesInReplicaOrder) {
  ShareSet set;
  EXPECT_TRUE(set.add(9, as_span(to_bytes("nine"))));
  EXPECT_TRUE(set.add(2, as_span(to_bytes("two"))));
  EXPECT_TRUE(set.add(5, as_span(to_bytes("five"))));
  EXPECT_TRUE(set.add(1, as_span(to_bytes("one"))));
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(replicas_of(set), (std::vector<ReplicaId>{1, 2, 5, 9}));
  EXPECT_EQ(to_bytes(set.share(0)), to_bytes("one"));
  EXPECT_EQ(to_bytes(set.share(1)), to_bytes("two"));
  EXPECT_EQ(to_bytes(set.share(2)), to_bytes("five"));
  EXPECT_EQ(to_bytes(set.share(3)), to_bytes("nine"));
}

TEST(ShareSet, FirstShareFromAReplicaWins) {
  ShareSet set;
  EXPECT_TRUE(set.add(4, as_span(to_bytes("first"))));
  EXPECT_TRUE(set.add(7, as_span(to_bytes("other"))));
  // A second share from replica 4, longer or shorter, changes nothing.
  EXPECT_FALSE(set.add(4, as_span(to_bytes("a much longer second share"))));
  EXPECT_FALSE(set.add(4, as_span(to_bytes(""))));
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(to_bytes(set.share(0)), to_bytes("first"));
  EXPECT_EQ(to_bytes(set.share(1)), to_bytes("other"));
}

TEST(ShareSet, SharesOfDifferentLengthsKeepTheirBytes) {
  // Shoup RSA shares vary in length, and a Byzantine share may have any
  // length, empty included: each must read back exactly as it arrived, in
  // the order a map keyed by replica would give.
  Rng rng(31);
  ShareSet set;
  std::map<ReplicaId, Bytes> model;
  for (int i = 0; i < 400; ++i) {
    auto replica = static_cast<ReplicaId>(1 + rng.below(150));
    Bytes share(rng.below(80));
    for (auto& b : share) b = static_cast<uint8_t>(rng.next());
    EXPECT_EQ(set.add(replica, as_span(share)), model.emplace(replica, share).second);
  }
  ASSERT_EQ(set.size(), model.size());
  size_t i = 0;
  for (const auto& [replica, share] : model) {
    EXPECT_EQ(set.replica(i), replica);
    EXPECT_EQ(to_bytes(set.share(i)), share) << "replica " << replica;
    ++i;
  }
}

TEST(ClusterKeys, SchemesHaveProtocolThresholds) {
  ProtocolConfig config = make_config(2, 1);  // n = 9
  Rng rng(5);
  ClusterKeys keys = ClusterKeys::generate(rng, config);
  EXPECT_EQ(keys.sigma.verifier->threshold(), config.fast_quorum());
  EXPECT_EQ(keys.tau.verifier->threshold(), config.slow_quorum());
  EXPECT_EQ(keys.pi.verifier->threshold(), config.exec_quorum());
  EXPECT_EQ(keys.sigma.signers.size(), config.n());

  ReplicaCrypto rc = ReplicaCrypto::for_replica(keys, 3);
  EXPECT_EQ(rc.sigma_signer->signer_id(), 3u);
  ReplicaCrypto verifier_only = ReplicaCrypto::verifier_only(keys);
  EXPECT_EQ(verifier_only.sigma_signer, nullptr);
  EXPECT_NE(verifier_only.pi_verifier, nullptr);
}

}  // namespace
}  // namespace sbft::core
