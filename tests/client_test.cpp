// SBFT client behaviour (§V-A), including adversarial acknowledgements: a
// Byzantine E-collector must not be able to convince a client with a forged
// value, a broken Merkle proof, or a bad pi signature.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/crypto_context.h"
#include "crypto/sha256.h"
#include "merkle/merkle_tree.h"

namespace sbft::core {
namespace {

// ---------------------------------------------------------------------------
// Pure acknowledgement verification under forgery attempts.

class AckVerification : public ::testing::Test {
 protected:
  AckVerification() {
    config_.f = 1;
    config_.c = 0;
    Rng rng(7);
    keys_ = ClusterKeys::generate(rng, config_);
    crypto_ = ReplicaCrypto::verifier_only(keys_);
  }

  /// A fully valid execute-ack for client 5's request at `timestamp`,
  /// positioned as operation `index` in a 3-operation block.
  ExecuteAckMsg valid_ack(uint64_t timestamp, const Bytes& value,
                          uint64_t index = 1) {
    ExecuteAckMsg ack;
    ack.client = 5;
    ack.timestamp = timestamp;
    ack.index = index;
    ack.value = value;
    std::vector<Digest> leaves = {
        exec_leaf(4, timestamp, crypto::sha256("other-1")),
        exec_leaf(5, timestamp, crypto::sha256(as_span(value))),
        exec_leaf(6, timestamp, crypto::sha256("other-2")),
    };
    merkle::BlockMerkleTree tree(leaves);
    ack.proof = tree.prove(index);
    ack.cert.seq = 1;
    ack.cert.state_root = crypto::sha256("state");
    ack.cert.ops_root = tree.root();
    ack.cert.prev_exec_digest = crypto::sha256("sbft.genesis");
    Digest d = ack.cert.exec_digest();
    std::vector<crypto::SignatureShare> shares;
    for (uint32_t i = 1; i <= config_.exec_quorum(); ++i) {
      shares.push_back({i, keys_.pi.signers[i - 1]->sign_share(d)});
    }
    ack.cert.pi_sig = *keys_.pi.verifier->combine(d, shares);
    return ack;
  }

  ProtocolConfig config_;
  ClusterKeys keys_;
  ReplicaCrypto crypto_;
};

TEST_F(AckVerification, ValidAckAccepted) {
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  EXPECT_TRUE(verify_execute_ack(crypto_, 5, ack));
}

TEST_F(AckVerification, ForgedValueRejected) {
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  ack.value = to_bytes("forged-result");  // proof no longer matches
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
}

TEST_F(AckVerification, WrongClientRejected) {
  // An ack addressed to client 5 does not verify for client 6 (leaf binds
  // the client identity).
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  EXPECT_FALSE(verify_execute_ack(crypto_, 6, ack));
}

TEST_F(AckVerification, WrongTimestampRejected) {
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  ack.timestamp = 2;  // replay against a different request
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
}

TEST_F(AckVerification, TamperedProofRejected) {
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  ASSERT_FALSE(ack.proof.path.empty());
  ack.proof.path[0][0] ^= 1;
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
}

TEST_F(AckVerification, TamperedCertificateRejected) {
  // Changing any certificate field breaks the chained digest under pi(d).
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  ack.cert.state_root[0] ^= 1;
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
  ack = valid_ack(1, to_bytes("result"));
  ack.cert.seq += 1;
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
  ack = valid_ack(1, to_bytes("result"));
  ack.cert.prev_exec_digest[0] ^= 1;
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
}

TEST_F(AckVerification, ForgedSignatureRejected) {
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  ack.cert.pi_sig[0] ^= 0x80;
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
  ack.cert.pi_sig.clear();
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
}

TEST_F(AckVerification, ProofForDifferentPositionRejected) {
  // Valid leaf, valid tree, but the proof claims the wrong index.
  ExecuteAckMsg ack = valid_ack(1, to_bytes("result"));
  ack.proof.index = 0;
  EXPECT_FALSE(verify_execute_ack(crypto_, 5, ack));
}

// ---------------------------------------------------------------------------
// Client actor behaviour on a live (fake) network.

struct FakeReplica : sim::IActor {
  std::vector<Request> requests;
  void on_message(NodeId /*from*/, const Message& msg, sim::ActorContext&) override {
    if (const auto* req = std::get_if<ClientRequestMsg>(&msg)) {
      requests.push_back(req->request);
    }
  }
};

class ClientActorFixture : public ::testing::Test {
 protected:
  ClientActorFixture() : net_(sim_, sim::lan_topology(), sim::CostModel{}) {
    config_.f = 1;
    config_.c = 0;
    config_.client_retry_timeout_us = 300'000;
    Rng rng(9);
    keys_ = ClusterKeys::generate(rng, config_);

    ClientOptions opts;
    opts.group.config = config_;
    opts.group.crypto = ReplicaCrypto::verifier_only(keys_);
    opts.group.replica_nodes = {0, 1, 2, 3};
    opts.num_requests = 3;
    opts.op_factory = [](uint64_t i, Rng&) {
      return to_bytes("op-" + std::to_string(i));
    };
    opts.id = 4;  // node id n

    for (auto& replica : replicas_) net_.add_node(&replica);
    client_ = std::make_unique<SbftClient>(std::move(opts));
    SBFT_CHECK(net_.add_node(client_.get()) == 4);
    net_.start();
    sim_.run_until(10'000);
  }

  ProtocolConfig config_;
  ClusterKeys keys_;
  sim::Simulator sim_;
  sim::Network net_;
  FakeReplica replicas_[4];
  std::unique_ptr<SbftClient> client_;
};

TEST_F(ClientActorFixture, FirstRequestTargetsPrimaryWithMonotoneTimestamp) {
  ASSERT_FALSE(replicas_[0].requests.empty());
  const Request& req = replicas_[0].requests[0];
  EXPECT_EQ(req.client, 4u);
  EXPECT_EQ(req.timestamp, 1u);
  EXPECT_EQ(req.op, to_bytes("op-0"));
  EXPECT_FALSE(req.client_sig.empty());
  // Only the (believed) primary was contacted initially.
  EXPECT_TRUE(replicas_[1].requests.empty());
  EXPECT_TRUE(replicas_[2].requests.empty());
}

TEST_F(ClientActorFixture, RetryBroadcastsSameTimestampToAllReplicas) {
  sim_.run_until(400'000);  // past the retry timeout
  EXPECT_GE(client_->retries(), 1u);
  for (auto& replica : replicas_) {
    ASSERT_FALSE(replica.requests.empty());
    // Retries re-send the same request, not a new timestamp (§V-A).
    EXPECT_EQ(replica.requests.back().timestamp, 1u);
  }
  EXPECT_EQ(client_->completed(), 0u);
  EXPECT_FALSE(client_->done());
}

TEST_F(ClientActorFixture, RepeatedRetriesKeepRotatingAndRearming) {
  sim_.run_until(1'600'000);  // several retry periods
  EXPECT_GE(client_->retries(), 3u);
  // Still zero completions — no valid acknowledgements were ever sent.
  EXPECT_EQ(client_->completed(), 0u);
}

// A reply for the first request (timestamp 1) claiming to come from `replica`.
MessagePtr reply_as(ReplicaId replica) {
  return make_message(ClientReplyMsg{replica, 4, 1, 1, to_bytes("made-up")});
}

TEST_F(ClientActorFixture, OneNodeCannotReplyAsTwoReplicas) {
  // Node 0 is replica 1; its second reply claims replica 2. At f=1 the two
  // would be the f+1 matching replies a request needs, were claims trusted.
  net_.inject(0, 4, reply_as(1));
  net_.inject(0, 4, reply_as(2));
  sim_.run_until(400'000);  // past the retry timeout
  EXPECT_EQ(client_->completed(), 0u);
  EXPECT_GE(client_->retries(), 1u);
}

TEST_F(ClientActorFixture, FPlusOneRepliesFromTheirOwnSendersComplete) {
  net_.inject(0, 4, reply_as(1));
  net_.inject(1, 4, reply_as(2));
  sim_.run_until(200'000);
  ASSERT_EQ(client_->completed(), 1u);
  EXPECT_FALSE(client_->records()[0].via_fast_ack);
}

}  // namespace
}  // namespace sbft::core
