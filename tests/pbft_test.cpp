// Tests for the scale-optimized PBFT baseline (§IX).
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace sbft::harness {
namespace {

ClusterOptions pbft_cluster(uint32_t f = 1) {
  ClusterOptions opts;
  opts.kind = ProtocolKind::kPbft;
  opts.f = f;
  opts.num_clients = 3;
  opts.requests_per_client = 20;
  opts.topology = sim::lan_topology();
  opts.seed = 31;
  return opts;
}

TEST(Pbft, CommitsAndRepliesWithFPlusOne) {
  Cluster cluster(pbft_cluster());
  EXPECT_EQ(cluster.n(), 4u);  // 3f + 1
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 20u);
    for (const auto& rec : cluster.client(i).records()) {
      EXPECT_FALSE(rec.via_fast_ack);  // PBFT has no execute-ack path
    }
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Pbft, AllReplicasConverge) {
  Cluster cluster(pbft_cluster());
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  cluster.run_for(5'000'000);
  SeqNum hi = cluster.max_executed();
  EXPECT_GT(hi, 0u);
  Digest expect = cluster.pbft_replica(1)->service().state_digest();
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    EXPECT_EQ(cluster.pbft_replica(r)->service().state_digest(), expect);
  }
}

TEST(Pbft, ToleratesFCrashedBackups) {
  auto opts = pbft_cluster(2);  // n = 7
  opts.crash_replicas = 2;
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(240'000'000));
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Pbft, PrimaryCrashTriggersViewChange) {
  auto opts = pbft_cluster();
  opts.requests_per_client = 100;
  Cluster cluster(std::move(opts));
  cluster.run_for(100'000);
  cluster.network().crash(0);  // primary of view 0
  ASSERT_TRUE(cluster.run_until_done(600'000'000));
  EXPECT_GT(cluster.total_view_changes(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Pbft, VotesClaimingAnotherReplicasIdDoNotCount) {
  // f = 1 with replicas 3 and 4 crashed: only two replicas can vote, one
  // short of a 2f+1 round. The primary's node sends replica 2 a pre-prepare
  // and then prepares and commits that claim to come from replicas 3 and 4.
  // Each vote counts only under the id of the replica that sent it, so the
  // slot never commits.
  ClusterOptions opts = pbft_cluster();
  opts.num_clients = 0;
  Cluster cluster(std::move(opts));
  cluster.crash_replica(3);
  cluster.crash_replica(4);
  cluster.run_for(10'000);

  sim::Network& net = cluster.network();
  NodeId forger = cluster.node_base();  // replica 1, view 0's primary
  NodeId target = forger + 1;           // replica 2
  SealedBlock block{Block{}};
  Digest h = slot_hash(/*s=*/1, /*v=*/0, block.digest());
  net.inject(forger, target, make_message(PrePrepareMsg{1, 0, block}));
  cluster.run_for(50'000);
  for (ReplicaId claimed : {3u, 4u}) {
    net.inject(forger, target, make_message(PbftPrepareMsg{1, 0, h, claimed}));
  }
  cluster.run_for(50'000);
  for (ReplicaId claimed : {3u, 4u}) {
    net.inject(forger, target, make_message(PbftCommitMsg{1, 0, h, claimed}));
  }
  cluster.run_for(50'000);

  EXPECT_FALSE(cluster.pbft_replica(2)->committed_digest_of(1).has_value());
  EXPECT_EQ(cluster.pbft_replica(2)->last_executed(), 0u);
}

TEST(Pbft, ViewChangesClaimingOtherReplicasDoNotCount) {
  // f = 1: view changes from f+1 = 2 replicas make a replica join the view
  // change. Replica 1's node sends replica 2 two view changes for view 1 that
  // claim to come from replicas 3 and 4. Each counts only under the id of
  // the replica that sent it, so replica 2 stays in view 0.
  ClusterOptions opts = pbft_cluster();
  opts.num_clients = 0;
  Cluster cluster(std::move(opts));
  cluster.run_for(10'000);

  sim::Network& net = cluster.network();
  NodeId forger = cluster.node_base();  // replica 1
  NodeId target = forger + 1;           // replica 2
  for (ReplicaId claimed : {3u, 4u}) {
    PbftViewChangeMsg vc;
    vc.sender = claimed;
    vc.next_view = 1;
    net.inject(forger, target, make_message(std::move(vc)));
  }
  cluster.run_for(50'000);

  EXPECT_EQ(cluster.pbft_replica(2)->view_changes(), 0u);
  EXPECT_EQ(cluster.pbft_replica(2)->view(), 0u);
}

TEST(Pbft, QuadraticMessageComplexity) {
  // PBFT's all-to-all rounds vs SBFT's collectors at the same sizing: PBFT
  // must send substantially more messages for the same committed work.
  auto run_messages = [](ProtocolKind kind) {
    ClusterOptions opts;
    opts.kind = kind;
    opts.f = 2;  // n = 7
    opts.num_clients = 2;
    opts.requests_per_client = 10;
    opts.topology = sim::lan_topology();
    opts.seed = 5;
    Cluster cluster(std::move(opts));
    EXPECT_TRUE(cluster.run_until_done(240'000'000));
    EXPECT_TRUE(cluster.check_agreement());
    return cluster.network().total_stats().count;
  };
  uint64_t pbft_msgs = run_messages(ProtocolKind::kPbft);
  uint64_t sbft_msgs = run_messages(ProtocolKind::kSbft);
  EXPECT_GT(pbft_msgs, sbft_msgs);
}

TEST(Pbft, CheckpointsAdvanceStableState) {
  auto opts = pbft_cluster();
  opts.num_clients = 4;
  opts.requests_per_client = 150;
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.max_batch = 2;
  };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000));
  cluster.run_for(5'000'000);
  EXPECT_GT(cluster.pbft_replica(1)->last_executed(), 16u);
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness
