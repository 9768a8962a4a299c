// Sharded multi-group deployment (docs/sharding.md): router determinism,
// the TxManager lock/decide state machine, single-shard isolation, and
// cross-shard 2PC atomicity — including under a coordinator-group primary
// crash mid-transaction.
#include <gtest/gtest.h>

#include <set>

#include "harness/workload.h"
#include "kv/kv_service.h"
#include "shard/deployment.h"
#include "shard/router.h"
#include "shard/tx_auth.h"
#include "shard/tx_manager.h"

namespace sbft::shard {
namespace {

// --- router ----------------------------------------------------------------

TEST(Router, DeterministicAcrossInstances) {
  Router a(4);
  Router b(4);
  for (int i = 0; i < 1000; ++i) {
    Bytes key = to_bytes("key-" + std::to_string(i));
    EXPECT_EQ(a.group_of(as_span(key)), b.group_of(as_span(key)));
    EXPECT_LT(a.group_of(as_span(key)), 4u);
  }
}

TEST(Router, SpreadsKeysAcrossGroups) {
  Router r(4);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 4000; ++i) {
    Bytes key = to_bytes("key-" + std::to_string(i));
    ++hits[r.group_of(as_span(key))];
  }
  for (int g = 0; g < 4; ++g) {
    // Uniform would be 1000 per group; FNV-1a should stay within a loose band.
    EXPECT_GT(hits[g], 600) << "group " << g;
    EXPECT_LT(hits[g], 1400) << "group " << g;
  }
}

TEST(Router, SingleGroupTakesEverything) {
  Router r(1);
  for (int i = 0; i < 100; ++i) {
    Bytes key = to_bytes("k" + std::to_string(i));
    EXPECT_EQ(r.group_of(as_span(key)), 0u);
  }
}

// --- vote authentication ---------------------------------------------------

TEST(TxAuth, SignVerifyRoundTrip) {
  TxAuth auth(to_bytes("deployment-secret"));
  Bytes sig = auth.sign(/*txid=*/42, /*group=*/1, /*replica=*/3, /*commit=*/true);
  EXPECT_TRUE(auth.verify(42, 1, 3, true, as_span(sig)));
  // Any field change breaks the authenticator.
  EXPECT_FALSE(auth.verify(43, 1, 3, true, as_span(sig)));
  EXPECT_FALSE(auth.verify(42, 0, 3, true, as_span(sig)));
  EXPECT_FALSE(auth.verify(42, 1, 2, true, as_span(sig)));
  EXPECT_FALSE(auth.verify(42, 1, 3, false, as_span(sig)));
  // A different deployment secret never cross-verifies.
  TxAuth other(to_bytes("other-secret"));
  EXPECT_FALSE(other.verify(42, 1, 3, true, as_span(sig)));
}

// --- TxManager state machine -----------------------------------------------

ShardTx two_group_tx(uint64_t txid, const Bytes& key0, const Bytes& key1) {
  ShardTx tx;
  tx.txid = txid;
  tx.coordinator = 0;
  tx.shards.push_back({0, {kv::encode_put(as_span(key0), as_span(to_bytes("a")))}});
  tx.shards.push_back({1, {kv::encode_put(as_span(key1), as_span(to_bytes("b")))}});
  return tx;
}

TxDecision decision_of(uint64_t txid, bool commit) {
  TxDecision d;
  d.txid = txid;
  d.commit = commit;
  return d;  // certificates are validated by ShardExecutor, not TxManager
}

TEST(TxManager, PrepareLocksAndCommitApplies) {
  TxManager tm;
  harness::FastKvService service;
  ShardTx tx = two_group_tx(7, to_bytes("x"), to_bytes("y"));
  EXPECT_EQ(tm.prepare(tx, /*client=*/9, /*group=*/0), to_bytes("TX-PREPARED"));
  EXPECT_EQ(tm.locked_keys(), 1u);
  ASSERT_NE(tm.prepared(7), nullptr);
  EXPECT_TRUE(tm.prepared(7)->vote_commit);

  EXPECT_EQ(tm.decide(decision_of(7, true), 0, service), to_bytes("TX-COMMITTED"));
  EXPECT_EQ(tm.locked_keys(), 0u);
  EXPECT_EQ(tm.last_applied_ops(), 1u);  // group 0's slice: the "x" put
  EXPECT_EQ(tm.prepared(7), nullptr);
  ASSERT_TRUE(tm.decided(7).has_value());
  EXPECT_TRUE(*tm.decided(7));
  // Replay is idempotent: same value, no second application.
  EXPECT_EQ(tm.decide(decision_of(7, true), 0, service), to_bytes("TX-COMMITTED"));
  EXPECT_EQ(tm.last_applied_ops(), 0u);
}

TEST(TxManager, ConflictVotesAbortWithoutLocking) {
  TxManager tm;
  harness::FastKvService service;
  ShardTx first = two_group_tx(1, to_bytes("hot"), to_bytes("y"));
  ShardTx second = two_group_tx(2, to_bytes("hot"), to_bytes("z"));
  EXPECT_EQ(tm.prepare(first, 9, 0), to_bytes("TX-PREPARED"));
  EXPECT_EQ(tm.prepare(second, 9, 0), to_bytes("TX-CONFLICT"));
  ASSERT_NE(tm.prepared(2), nullptr);
  EXPECT_FALSE(tm.prepared(2)->vote_commit);
  EXPECT_EQ(tm.locked_keys(), 1u);  // still held by tx 1 only

  // Aborting the loser releases nothing and applies nothing.
  EXPECT_EQ(tm.decide(decision_of(2, false), 0, service), to_bytes("TX-ABORTED"));
  EXPECT_EQ(tm.locked_keys(), 1u);
  // Committing the winner applies and frees the key.
  EXPECT_EQ(tm.decide(decision_of(1, true), 0, service), to_bytes("TX-COMMITTED"));
  EXPECT_EQ(tm.locked_keys(), 0u);
}

TEST(TxManager, AbortBeforePrepareServesDecision) {
  TxManager tm;
  harness::FastKvService service;
  // Another group's conflict aborted tx 5 before this group ordered its
  // prepare: the decision lands first, the late prepare takes no locks.
  EXPECT_EQ(tm.decide(decision_of(5, false), 0, service), to_bytes("TX-ABORTED"));
  ShardTx tx = two_group_tx(5, to_bytes("x"), to_bytes("y"));
  EXPECT_EQ(tm.prepare(tx, 9, 0), to_bytes("TX-ABORTED"));
  EXPECT_EQ(tm.locked_keys(), 0u);
  EXPECT_EQ(tm.prepared(5), nullptr);
}

TEST(TxManager, CommitWithoutPrepareIsRejected) {
  TxManager tm;
  harness::FastKvService service;
  EXPECT_EQ(tm.decide(decision_of(11, true), 0, service), to_bytes("TX-REJECTED"));
  EXPECT_FALSE(tm.decided(11).has_value());
}

TEST(TxManager, NonParticipantPrepareRejected) {
  TxManager tm;
  ShardTx tx = two_group_tx(3, to_bytes("x"), to_bytes("y"));
  EXPECT_EQ(tm.prepare(tx, 9, /*group=*/2), to_bytes("TX-REJECTED"));
  EXPECT_EQ(tm.prepared(3), nullptr);
}

TEST(TxManager, SnapshotRoundTripsByteIdentically) {
  TxManager tm;
  harness::FastKvService service;
  tm.prepare(two_group_tx(1, to_bytes("a"), to_bytes("b")), 9, 0);
  tm.prepare(two_group_tx(2, to_bytes("c"), to_bytes("d")), 10, 0);
  tm.decide(decision_of(2, true), 0, service);

  Bytes snap = tm.snapshot();
  TxManager other;
  ASSERT_TRUE(other.restore(as_span(snap)));
  EXPECT_EQ(other.snapshot(), snap);  // byte-identical re-encode
  EXPECT_EQ(other.locked_keys(), 1u);
  ASSERT_NE(other.prepared(1), nullptr);
  EXPECT_EQ(other.prepared(1)->client, 9u);
  ASSERT_TRUE(other.decided(2).has_value());

  // Restoring empty data (pre-shard envelope) clears everything.
  ASSERT_TRUE(other.restore({}));
  EXPECT_EQ(other.locked_keys(), 0u);
  EXPECT_EQ(other.snapshot(), TxManager{}.snapshot());
}

// --- shard client acceptance ------------------------------------------------

struct FakeReplica : sim::IActor {
  std::vector<Request> requests;
  void on_message(NodeId /*from*/, const Message& msg, sim::ActorContext&) override {
    if (const auto* req = std::get_if<ClientRequestMsg>(&msg)) {
      requests.push_back(req->request);
    }
  }
};

// A ShardClient (node 8) over two 4-replica groups of fake replicas: group g's
// replica r sits at node 4g + r - 1. Nothing ever answers unless a test
// injects it.
class ShardClientAcceptance : public ::testing::Test {
 protected:
  static constexpr NodeId kClient = 8;

  void start(uint32_t cross_shard_every) {
    ProtocolConfig config;
    config.f = 1;
    Rng rng(9);
    const core::ClusterKeys keys = core::ClusterKeys::generate(rng, config);
    ShardClientOptions opts;
    opts.id = kClient;
    opts.num_requests = 3;
    opts.router = std::make_shared<Router>(2);
    opts.cross_shard_every = cross_shard_every;
    for (NodeId base : {0u, 4u}) {
      core::GroupView view;
      view.config = config;
      view.crypto = core::ReplicaCrypto::verifier_only(keys);
      view.replica_nodes = {base, base + 1, base + 2, base + 3};
      opts.groups.push_back(std::move(view));
    }
    for (auto& replica : replicas_) net_.add_node(&replica);
    client_ = std::make_unique<ShardClient>(std::move(opts));
    SBFT_CHECK(net_.add_node(client_.get()) == kClient);
    net_.start();
    sim_.run_until(10'000);
  }

  /// Node `from` sends f+1 = 2 replies to the first request, claiming
  /// replicas 1 and 2 of its group.
  void forge_replies(NodeId from, const Bytes& value) {
    for (ReplicaId claimed : {1u, 2u}) {
      net_.inject(from, kClient,
                  make_message(ClientReplyMsg{claimed, kClient, 1, 1, value}));
    }
  }

  sim::Simulator sim_;
  sim::Network net_{sim_, sim::lan_topology(), sim::CostModel{}};
  FakeReplica replicas_[8];
  std::unique_ptr<ShardClient> client_;
};

TEST_F(ShardClientAcceptance, ForgedSingleShardRepliesDoNotComplete) {
  start(/*cross_shard_every=*/0);
  forge_replies(0, to_bytes("made-up"));
  forge_replies(4, to_bytes("made-up"));
  sim_.run_until(200'000);
  EXPECT_EQ(client_->completed(), 0u);
}

TEST_F(ShardClientAcceptance, ForgedOutcomeRepliesDoNotCompleteATransaction) {
  start(/*cross_shard_every=*/1);
  forge_replies(0, to_bytes("TX-COMMITTED"));
  forge_replies(4, to_bytes("TX-COMMITTED"));
  sim_.run_until(200'000);
  EXPECT_EQ(client_->completed(), 0u);
}

TEST_F(ShardClientAcceptance, OutcomesFromFPlusOneReplicasPerGroupComplete) {
  start(/*cross_shard_every=*/1);
  // The Prepare went to each group's first replica.
  ASSERT_EQ(replicas_[0].requests.size(), 1u);
  ASSERT_EQ(replicas_[4].requests.size(), 1u);
  const auto tx = decode_tx_prepare_request(replicas_[0].requests[0]);
  ASSERT_TRUE(tx.has_value());
  for (uint32_t g : {0u, 1u}) {
    for (ReplicaId r : {1u, 2u}) {
      net_.inject(4 * g + r - 1, kClient,
                  make_message(TxResultMsg{tx->txid, g, r, true}));
    }
  }
  sim_.run_until(200'000);
  ASSERT_EQ(client_->completed(), 1u);
  EXPECT_TRUE(client_->records()[0].cross_shard);
  EXPECT_EQ(client_->cross_shard_commits(), 1u);
}

// --- deployment scenarios --------------------------------------------------

DeploymentOptions small_deployment(harness::ProtocolKind kind, uint32_t groups) {
  DeploymentOptions d;
  d.num_groups = groups;
  d.group.kind = kind;
  d.group.f = 1;
  d.num_clients = 3;
  d.requests_per_client = 40;
  d.keyspace = 512;
  d.seed = 7;
  return d;
}

class ShardDeployment : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(ShardDeployment, SingleShardRequestsStayIsolated) {
  DeploymentOptions opts = small_deployment(GetParam(), 2);
  Deployment dep(opts);
  ASSERT_TRUE(dep.run_until_done(300'000'000));

  uint64_t executed = 0;
  for (uint32_t g = 0; g < dep.num_groups(); ++g) {
    EXPECT_TRUE(dep.group(g).check_agreement());
    executed += dep.group(g).max_executed();
    // No cross-shard traffic: the shard layer never locked or decided.
    for (ReplicaId r = 1; r <= dep.group(g).num_replicas(); ++r) {
      EXPECT_EQ(dep.executor(g, r).tx_manager().locked_keys(), 0u);
      EXPECT_TRUE(dep.executor(g, r).tx_manager().decided_txs().empty());
    }
  }
  // Both groups ordered real work (the router spreads the keyspace).
  EXPECT_GT(dep.group(0).max_executed(), 0u);
  EXPECT_GT(dep.group(1).max_executed(), 0u);
  EXPECT_EQ(dep.total_completed(), 3u * 40u);
  EXPECT_EQ(dep.cross_shard_commits(), 0u);
  EXPECT_EQ(dep.cross_shard_aborts(), 0u);
  (void)executed;
}

TEST_P(ShardDeployment, CrossShardTransfersCommitAtomically) {
  DeploymentOptions opts = small_deployment(GetParam(), 2);
  opts.cross_shard_every = 4;  // every 4th request is a two-key transfer
  Deployment dep(opts);
  ASSERT_TRUE(dep.run_until_done(600'000'000));
  // Clients finishing does not mean every backup executed the tail of its
  // group's sequence yet; let the final decisions drain everywhere.
  dep.run_for(10'000'000);

  EXPECT_EQ(dep.total_completed(), 3u * 40u);
  EXPECT_GT(dep.cross_shard_commits(), 0u);
  EXPECT_TRUE(dep.audit_cross_shard_atomicity().empty());
  for (uint32_t g = 0; g < dep.num_groups(); ++g) {
    EXPECT_TRUE(dep.group(g).check_agreement());
    // Everything decided: no lock leaks anywhere.
    for (ReplicaId r = 1; r <= dep.group(g).num_replicas(); ++r) {
      EXPECT_EQ(dep.executor(g, r).tx_manager().locked_keys(), 0u);
    }
  }
}

TEST_P(ShardDeployment, AtomicityHoldsAcrossCoordinatorPrimaryCrash) {
  DeploymentOptions opts = small_deployment(GetParam(), 2);
  opts.cross_shard_every = 3;
  opts.requests_per_client = 30;
  Deployment dep(opts);

  // Group 0 is the coordinator for every 2-group transaction (lowest
  // participant group). Kill its primary mid-run — in-flight transactions
  // straddle the view change — and bring it back later.
  const ReplicaId primary = dep.group(0).config().primary_of(0);
  dep.simulator().schedule(2'000'000,
                           [&] { dep.group(0).crash_replica(primary); });
  dep.simulator().schedule(40'000'000,
                           [&] { dep.group(0).restart_replica(primary); });

  ASSERT_TRUE(dep.run_until_done(900'000'000));
  EXPECT_EQ(dep.total_completed(), 3u * 30u);
  EXPECT_GT(dep.cross_shard_commits() + dep.cross_shard_aborts(), 0u);
  // The headline invariant: no transaction committed in one shard and
  // aborted (or split within a group) in another — even across the crash.
  EXPECT_TRUE(dep.audit_cross_shard_atomicity().empty());
  for (uint32_t g = 0; g < dep.num_groups(); ++g) {
    EXPECT_TRUE(dep.group(g).check_agreement());
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ShardDeployment,
                         ::testing::Values(harness::ProtocolKind::kSbft,
                                           harness::ProtocolKind::kPbft),
                         [](const auto& info) {
                           return info.param == harness::ProtocolKind::kSbft
                                      ? "Sbft"
                                      : "Pbft";
                         });

}  // namespace
}  // namespace sbft::shard
