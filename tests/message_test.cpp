#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serde.h"
#include "proto/message.h"

namespace sbft {
namespace {

Rng& rng() {
  static Rng r(0xfeed);
  return r;
}

Digest random_digest() {
  Digest d;
  Bytes b = rng().bytes(32);
  std::copy(b.begin(), b.end(), d.begin());
  return d;
}

Request random_request() {
  Request req;
  req.client = static_cast<ClientId>(rng().below(1000));
  req.timestamp = rng().next();
  req.op = rng().bytes(1 + rng().below(64));
  req.client_sig = rng().bytes(33);
  return req;
}

Block random_block(size_t requests) {
  Block b;
  for (size_t i = 0; i < requests; ++i) b.requests.push_back(random_request());
  return b;
}

ExecCertificate random_cert() {
  ExecCertificate c;
  c.seq = rng().next();
  c.state_root = random_digest();
  c.ops_root = random_digest();
  c.prev_exec_digest = random_digest();
  c.pi_sig = rng().bytes(33);
  return c;
}

void expect_roundtrip(const Message& msg) {
  Bytes encoded = encode_message(msg);
  EXPECT_EQ(encoded.size(), message_wire_size(msg));
  auto decoded = decode_message(as_span(encoded));
  ASSERT_TRUE(decoded.has_value()) << message_type_name(msg);
  EXPECT_EQ(decoded->index(), msg.index());
  EXPECT_EQ(encode_message(*decoded), encoded) << message_type_name(msg);
}

TEST(Messages, ClientRequestRoundTrip) {
  expect_roundtrip(Message(ClientRequestMsg{random_request()}));
}

TEST(Messages, PrePrepareRoundTrip) {
  expect_roundtrip(Message(PrePrepareMsg{7, 3, random_block(5)}));
}

TEST(Messages, SignShareRoundTrip) {
  SignShareMsg m;
  m.seq = 9;
  m.view = 2;
  m.block_digest = random_digest();
  m.h = random_digest();
  m.replica = 4;
  m.sigma_share = rng().bytes(33);
  m.tau_share = rng().bytes(33);
  expect_roundtrip(Message(m));
}

TEST(Messages, CommitPathRoundTrips) {
  FullCommitProofMsg fast{1, 2, random_digest(), rng().bytes(33)};
  expect_roundtrip(Message(fast));
  PrepareMsg prep{3, 4, random_digest(), rng().bytes(33)};
  expect_roundtrip(Message(prep));
  CommitShareMsg cs{5, 6, random_digest(), 7, rng().bytes(33)};
  expect_roundtrip(Message(cs));
  FullCommitProofSlowMsg slow{8, 9, random_digest(), rng().bytes(33),
                              rng().bytes(33)};
  expect_roundtrip(Message(slow));
}

TEST(Messages, ExecutionPathRoundTrips) {
  SignStateMsg ss{10, 3, random_digest(), rng().bytes(33)};
  expect_roundtrip(Message(ss));
  FullExecuteProofMsg fep{11, random_digest(), rng().bytes(33)};
  expect_roundtrip(Message(fep));

  ExecuteAckMsg ack;
  ack.client = 12;
  ack.timestamp = 34;
  ack.index = 2;
  ack.value = rng().bytes(16);
  ack.cert = random_cert();
  ack.proof.index = 2;
  ack.proof.leaf_count = 8;
  ack.proof.path = {random_digest(), random_digest(), random_digest()};
  expect_roundtrip(Message(ack));

  ClientReplyMsg reply{3, 12, 34, 11, rng().bytes(16)};
  expect_roundtrip(Message(reply));
}

TEST(Messages, ViewChangeRoundTrip) {
  ViewChangeMsg vc;
  vc.sender = 2;
  vc.next_view = 5;
  vc.ls = 128;
  vc.checkpoint = random_cert();
  SlotEvidence e;
  e.seq = 129;
  e.lm_kind = SlowEvidence::kPrepareCert;
  e.lm_view = 4;
  e.lm_block_digest = random_digest();
  e.lm_sig = rng().bytes(33);
  e.fm_kind = FastEvidence::kVote;
  e.fm_view = 4;
  e.fm_block_digest = random_digest();
  e.fm_sig = rng().bytes(33);
  e.block = random_block(2);
  vc.slots.push_back(e);
  SlotEvidence full;
  full.seq = 130;
  full.lm_kind = SlowEvidence::kFullProof;
  full.lm_view = 3;
  full.lm_block_digest = random_digest();
  full.lm_sig = rng().bytes(33);
  full.lm_inner_sig = rng().bytes(33);
  vc.slots.push_back(full);
  expect_roundtrip(Message(vc));

  NewViewMsg nv;
  nv.view = 5;
  nv.proofs = {vc, vc, vc};
  expect_roundtrip(Message(nv));
}

TEST(Messages, StateTransferRoundTrips) {
  expect_roundtrip(Message(GetBlockRequestMsg{1, 2, random_digest()}));
  expect_roundtrip(Message(GetBlockReplyMsg{2, random_block(3)}));
  expect_roundtrip(Message(StateTransferRequestMsg{3, 44}));
  // Probe advertising a delta base (docs/state_transfer.md).
  StateTransferRequestMsg probe;
  probe.requester = 4;
  probe.have_seq = 48;
  probe.base_seq = 32;
  probe.base_root = random_digest();
  expect_roundtrip(Message(probe));
}

TEST(Messages, ChunkedStateTransferRoundTrips) {
  StateManifestMsg manifest;
  manifest.donor = 3;
  manifest.seq = 128;
  manifest.cert = random_cert();
  manifest.chunk_root = random_digest();
  manifest.chunk_count = 17;
  manifest.chunk_size = 4096;
  manifest.total_bytes = 16 * 4096 + 123;
  expect_roundtrip(Message(manifest));

  // Delta manifest: differing-chunk bitmap + base-index map for the rest.
  StateManifestMsg delta = manifest;
  delta.base_seq = 112;
  delta.delta_bitmap = {0x03, 0x80, 0x01};
  delta.base_map = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  expect_roundtrip(Message(delta));

  // PBFT manifest with its quorum checkpoint certificate.
  StateManifestMsg certified = manifest;
  certified.checkpoint_proof = {{1, rng().bytes(32)}, {3, rng().bytes(32)},
                                {4, rng().bytes(32)}};
  expect_roundtrip(Message(certified));

  StateChunkRequestMsg req;
  req.requester = 2;
  req.seq = 128;
  req.chunk_root = manifest.chunk_root;
  req.indices = {0, 5, 16};
  expect_roundtrip(Message(req));

  StateChunkMsg chunk;
  chunk.donor = 3;
  chunk.seq = 128;
  chunk.chunk_root = manifest.chunk_root;
  chunk.index = 5;
  chunk.chunk_count = 17;
  chunk.data = rng().bytes(4096);
  chunk.proof.index = 5;
  chunk.proof.leaf_count = 17;
  chunk.proof.path = {random_digest(), random_digest(), random_digest(),
                      random_digest(), random_digest()};
  expect_roundtrip(Message(chunk));
}

TEST(Messages, PbftRoundTrips) {
  expect_roundtrip(Message(PbftPrepareMsg{1, 2, random_digest(), 3}));
  expect_roundtrip(Message(PbftCommitMsg{4, 5, random_digest(), 6}));
  expect_roundtrip(Message(PbftCheckpointMsg{128, random_digest(), 7}));
  expect_roundtrip(
      Message(PbftCheckpointMsg{128, random_digest(), 7, rng().bytes(32)}));
  PbftViewChangeMsg vc;
  vc.sender = 1;
  vc.next_view = 2;
  vc.ls = 0;
  PbftPreparedCert cert;
  cert.seq = 3;
  cert.view = 1;
  cert.h = random_digest();
  cert.block = random_block(2);
  vc.prepared.push_back(cert);
  expect_roundtrip(Message(vc));
  PbftNewViewMsg nv;
  nv.view = 2;
  nv.proofs = {vc};
  expect_roundtrip(Message(nv));
}

TEST(Messages, DecodeRejectsGarbage) {
  Bytes garbage = {0xff, 0x00, 0x12};
  EXPECT_FALSE(decode_message(as_span(garbage)).has_value());
  EXPECT_FALSE(decode_message(ByteSpan{}).has_value());
}

TEST(Messages, DecodeRejectsTrailingBytes) {
  Bytes encoded = encode_message(Message(StateTransferRequestMsg{1, 2}));
  encoded.push_back(0x00);
  EXPECT_FALSE(decode_message(as_span(encoded)).has_value());
}

/// Overwrites the trailing u32 of `encoded` (a count prefix) with `count`.
Bytes with_trailing_count(Bytes encoded, uint32_t count) {
  for (size_t i = 0; i < 4; ++i) {
    encoded[encoded.size() - 4 + i] = static_cast<uint8_t>(count >> (8 * i));
  }
  return encoded;
}

TEST(Messages, DecodeRejectsCountsTheBytesLeftCannotHold) {
  // Every message here ends in a count prefix. Claiming more elements than
  // the bytes left can hold fails the decode instead of truncating to an
  // empty list (or reserving memory for the claimed count). The first is a
  // 21-byte pre-prepare (tag, seq, view, request count), which claiming
  // 2,000,000 requests used to decode as a valid empty block.
  ASSERT_EQ(encode_message(Message(PrePrepareMsg{})).size(), 21u);
  TxDecisionMsg cert_without_votes;
  cert_without_votes.certs.push_back(TxGroupCert{});
  const std::vector<Message> msgs = {
      Message(PrePrepareMsg{}),      Message(GetBlockReplyMsg{}),
      Message(ViewChangeMsg{}),      Message(NewViewMsg{}),
      Message(PbftViewChangeMsg{}),  Message(PbftNewViewMsg{}),
      Message(TxDecisionMsg{}),      Message(cert_without_votes),
      Message(StateManifestMsg{}),   Message(StateChunkRequestMsg{}),
  };
  for (const Message& msg : msgs) {
    Bytes encoded = encode_message(msg);
    ASSERT_TRUE(decode_message(as_span(encoded)).has_value())
        << message_type_name(msg);
    for (uint32_t count : {1u, 200'000u, 2'000'000u, 0xffffffffu}) {
      EXPECT_FALSE(
          decode_message(as_span(with_trailing_count(encoded, count))).has_value())
          << message_type_name(msg) << " claiming " << count;
    }
  }
}

TEST(Messages, DecodeRejectsMalformedBlockProof) {
  // The Merkle proof is the last field of both messages: replace its bytes
  // with 3 garbage bytes. An empty proof must not be substituted.
  ExecuteAckMsg ack;
  ack.client = 12;
  ack.value = rng().bytes(8);
  StateChunkMsg chunk;
  chunk.data = rng().bytes(64);
  for (const Message& msg : {Message(ack), Message(chunk)}) {
    Bytes encoded = encode_message(msg);
    encoded.resize(encoded.size() - 4 - merkle::BlockProof{}.encode().size());
    Writer garbage;
    garbage.bytes(Bytes{0x01, 0x02, 0x03});
    encoded.insert(encoded.end(), garbage.data().begin(), garbage.data().end());
    EXPECT_FALSE(decode_message(as_span(encoded)).has_value())
        << message_type_name(msg);
  }
}

TEST(Messages, BlockDigestDependsOnContent) {
  Block a = random_block(3);
  Block b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.requests[0].timestamp ^= 1;
  EXPECT_NE(a.digest(), b.digest());
  // Order matters.
  Block c = a;
  std::swap(c.requests[0], c.requests[1]);
  EXPECT_NE(a.digest(), c.digest());
}

// ---------------------------------------------------------------------------
// Sealed blocks: one shared, immutable body per proposal (docs/performance.md)

TEST(SealedBlocks, DigestEqualsTheBlocksDigest) {
  Block b = random_block(4);
  SealedBlock sealed = b;
  EXPECT_EQ(sealed.digest(), b.digest());
  EXPECT_EQ(sealed.wire_size(), b.wire_size());
  ASSERT_EQ(sealed.requests().size(), 4u);
  EXPECT_EQ(sealed.requests()[3].op, b.requests[3].op);
  // Memoized: every call returns the one stored digest.
  EXPECT_EQ(&sealed.digest(), &sealed.digest());
  EXPECT_EQ(SealedBlock{}.digest(), Block{}.digest());
}

TEST(SealedBlocks, CopiesShareOneBody) {
  SealedBlock a = random_block(3);
  SealedBlock b = a;
  PrePrepareMsg pp{1, 0, a};
  SlotEvidence e;
  e.block = a;
  EXPECT_EQ(&b.requests(), &a.requests());
  EXPECT_EQ(&pp.block.requests(), &a.requests());
  EXPECT_EQ(&e.block->requests(), &a.requests());
  EXPECT_EQ(&b.digest(), &a.digest());
  // Sealing equal contents again makes a second body with an equal digest.
  SealedBlock c = *a;
  EXPECT_NE(&c.requests(), &a.requests());
  EXPECT_EQ(c.digest(), a.digest());
}

TEST(SealedBlocks, ResealedAfterARequestSwapGetsItsOwnDigest) {
  SealedBlock a = random_block(3);
  const Digest before = a.digest();  // memoized before the copy is edited
  Block alt = *a;
  std::swap(alt.requests.front(), alt.requests.back());
  SealedBlock b = std::move(alt);
  EXPECT_NE(b.digest(), a.digest());
  EXPECT_EQ(b.digest(), (*b).digest());
  EXPECT_EQ(a.digest(), before);
  EXPECT_EQ(a.digest(), (*a).digest());
}

template <typename T>
T decode_as(const Message& msg) {
  auto decoded = decode_message(as_span(encode_message(msg)));
  if (!decoded || !std::holds_alternative<T>(*decoded)) {
    ADD_FAILURE() << message_type_name(msg) << " did not decode";
    return T{};
  }
  return std::get<T>(*decoded);
}

TEST(SealedBlocks, BlockCarryingMessagesRoundTrip) {
  const SealedBlock block = random_block(3);

  Message pp(PrePrepareMsg{7, 3, block});
  expect_roundtrip(pp);
  EXPECT_EQ(decode_as<PrePrepareMsg>(pp).block.digest(), block.digest());

  Message reply(GetBlockReplyMsg{7, block});
  expect_roundtrip(reply);
  EXPECT_EQ(decode_as<GetBlockReplyMsg>(reply).block.digest(), block.digest());

  ViewChangeMsg vc;
  vc.sender = 1;
  vc.next_view = 2;
  SlotEvidence e;
  e.seq = 7;
  e.fm_kind = FastEvidence::kVote;
  e.fm_block_digest = block.digest();
  e.block = block;
  vc.slots.push_back(e);
  expect_roundtrip(Message(vc));
  ViewChangeMsg vc_back = decode_as<ViewChangeMsg>(Message(vc));
  ASSERT_EQ(vc_back.slots.size(), 1u);
  ASSERT_TRUE(vc_back.slots[0].block.has_value());
  EXPECT_EQ(vc_back.slots[0].block->digest(), block.digest());

  PbftViewChangeMsg pvc;
  pvc.sender = 1;
  pvc.next_view = 2;
  PbftPreparedCert cert;
  cert.seq = 7;
  cert.block = block;
  pvc.prepared.push_back(cert);
  expect_roundtrip(Message(pvc));
  PbftViewChangeMsg pvc_back = decode_as<PbftViewChangeMsg>(Message(pvc));
  ASSERT_EQ(pvc_back.prepared.size(), 1u);
  EXPECT_EQ(pvc_back.prepared[0].block.digest(), block.digest());
}

TEST(Messages, SlotHashBindsAllInputs) {
  Digest d = random_digest();
  EXPECT_NE(slot_hash(1, 0, d), slot_hash(2, 0, d));
  EXPECT_NE(slot_hash(1, 0, d), slot_hash(1, 1, d));
  EXPECT_NE(slot_hash(1, 0, d), slot_hash(1, 0, random_digest()));
}

TEST(Messages, ExecCertificateDigestChains) {
  ExecCertificate a = random_cert();
  ExecCertificate b = a;
  EXPECT_EQ(a.exec_digest(), b.exec_digest());
  b.prev_exec_digest = random_digest();
  EXPECT_NE(a.exec_digest(), b.exec_digest());
  b = a;
  b.seq += 1;
  EXPECT_NE(a.exec_digest(), b.exec_digest());
}

TEST(Messages, ReconfigBlockRoundTrip) {
  ReconfigBlockMsg m;
  m.delta.adds = {{5, 6}, {6, 7}, {7, 8}};
  m.delta.removes = {4};
  m.delta.new_f = 2;
  m.delta.new_c = 0;
  m.nonce = 3;
  expect_roundtrip(Message(m));

  auto decoded = decode_message(as_span(encode_message(Message(m))));
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<ReconfigBlockMsg>(*decoded);
  ASSERT_EQ(back.delta.adds.size(), 3u);
  EXPECT_EQ(back.delta.adds[0].id, 5u);
  EXPECT_EQ(back.delta.adds[0].node, 6u);
  EXPECT_EQ(back.delta.removes, std::vector<ReplicaId>{4});
  EXPECT_EQ(back.delta.new_f, 2u);
  EXPECT_EQ(back.nonce, 3u);
}

TEST(Messages, ReconfigMarkerRequestRoundTrip) {
  ReconfigDelta delta;
  delta.adds = {{9, 12}};
  delta.new_f = 1;
  Request req = make_reconfig_request(delta, 7);
  EXPECT_EQ(req.client, kReconfigClient);
  EXPECT_EQ(req.timestamp, 7u);
  auto back = decode_reconfig_request(req);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->adds.size(), 1u);
  EXPECT_EQ(back->adds[0].id, 9u);
  EXPECT_EQ(back->adds[0].node, 12u);
  // A normal client request never decodes as a marker.
  EXPECT_FALSE(decode_reconfig_request(random_request()).has_value());
  // A client-0 request without the marker magic is not a reconfiguration.
  Request forged;
  forged.client = kReconfigClient;
  forged.op = to_bytes("not-a-marker");
  EXPECT_FALSE(decode_reconfig_request(forged).has_value());
}

ShardTx random_shard_tx() {
  ShardTx tx;
  tx.txid = rng().next();
  tx.coordinator = 1;
  for (uint32_t g : {1u, 3u, 4u}) {
    TxShardOps slice;
    slice.group = g;
    for (uint32_t i = 0; i < 1 + rng().below(3); ++i)
      slice.ops.push_back(rng().bytes(1 + rng().below(48)));
    tx.shards.push_back(std::move(slice));
  }
  return tx;
}

TxGroupCert random_group_cert(uint32_t group, bool commit) {
  TxGroupCert cert;
  cert.group = group;
  cert.commit = commit;
  for (ReplicaId r : {0u, 2u}) cert.votes.push_back({r, commit, rng().bytes(32)});
  return cert;
}

TEST(Messages, ShardTxRoundTrip) {
  ShardTx tx = random_shard_tx();
  auto back = decode_shard_tx(as_span(encode_shard_tx(tx)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->txid, tx.txid);
  EXPECT_EQ(back->coordinator, tx.coordinator);
  ASSERT_EQ(back->shards.size(), tx.shards.size());
  for (size_t i = 0; i < tx.shards.size(); ++i) {
    EXPECT_EQ(back->shards[i].group, tx.shards[i].group);
    EXPECT_EQ(back->shards[i].ops, tx.shards[i].ops);
  }
  EXPECT_FALSE(decode_shard_tx(as_span(rng().bytes(17))).has_value());
}

TEST(Messages, TxEnvelopeRoundTrips) {
  expect_roundtrip(Message(TxVoteMsg{rng().next(), 3, 2, true, rng().bytes(32)}));
  expect_roundtrip(Message(TxResultMsg{rng().next(), 2, 1, false}));

  TxDecisionMsg dm;
  dm.txid = rng().next();
  dm.commit = true;
  dm.certs.push_back(random_group_cert(1, true));
  dm.certs.push_back(random_group_cert(3, true));
  expect_roundtrip(Message(dm));
  auto decoded = decode_message(as_span(encode_message(Message(dm))));
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<TxDecisionMsg>(*decoded);
  EXPECT_EQ(back.txid, dm.txid);
  EXPECT_TRUE(back.commit);
  ASSERT_EQ(back.certs.size(), 2u);
  EXPECT_EQ(back.certs[1].group, 3u);
  ASSERT_EQ(back.certs[1].votes.size(), 2u);
  EXPECT_EQ(back.certs[1].votes[1].replica, 2u);
  EXPECT_EQ(back.certs[1].votes[1].sig, dm.certs[1].votes[1].sig);
}

TEST(Messages, TxPrepareMarkerRequestRoundTrip) {
  ShardTx tx = random_shard_tx();
  Request req = make_tx_prepare_request(tx, /*client=*/42, /*timestamp=*/9);
  EXPECT_EQ(req.client, 42u);
  EXPECT_EQ(req.timestamp, 9u);
  auto back = decode_tx_prepare_request(req);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->txid, tx.txid);
  ASSERT_EQ(back->shards.size(), tx.shards.size());
  EXPECT_EQ(back->shards[2].ops, tx.shards[2].ops);
  // A normal client request never decodes as a Prepare marker.
  EXPECT_FALSE(decode_tx_prepare_request(random_request()).has_value());
}

TEST(Messages, TxDecisionMarkerRequestRoundTrip) {
  TxDecision decision;
  decision.txid = rng().next();
  decision.commit = false;
  decision.certs.push_back(random_group_cert(1, false));
  Request req = make_tx_decision_request(decision);
  EXPECT_EQ(req.client, kShardTxClient);
  auto back = decode_tx_decision_request(req);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->txid, decision.txid);
  EXPECT_FALSE(back->commit);
  ASSERT_EQ(back->certs.size(), 1u);
  EXPECT_EQ(back->certs[0].votes[0].sig, decision.certs[0].votes[0].sig);
  // The reserved-client markers carry distinct magics: a decision marker is
  // not a reconfiguration and vice versa.
  EXPECT_FALSE(decode_reconfig_request(req).has_value());
  ReconfigDelta delta;
  delta.adds = {{9, 12}};
  EXPECT_FALSE(
      decode_tx_decision_request(make_reconfig_request(delta, 7)).has_value());
  EXPECT_FALSE(decode_tx_decision_request(random_request()).has_value());
}

TEST(Messages, TypeNamesDistinct) {
  EXPECT_STREQ(message_type_name(Message(PrePrepareMsg{})), "pre-prepare");
  EXPECT_STREQ(message_type_name(Message(SignShareMsg{})), "sign-share");
  EXPECT_STREQ(message_type_name(Message(NewViewMsg{})), "new-view");
  EXPECT_STREQ(message_type_name(Message(ReconfigBlockMsg{})), "reconfig-block");
}

// ---------------------------------------------------------------------------
// Auto-derived exhaustiveness over the Message variant (lint:wire_format).
// The loop below is instantiated per alternative at compile time, so a new
// wire type added to the variant is covered the moment it exists — its tag
// must be unique across all message types and a default-constructed instance
// must survive encode -> decode -> re-encode byte-identically. Populated
// round-trips live in the named tests above; this one guarantees no type can
// ship with no serde coverage at all.

template <size_t I = 0>
void visit_all_wire_messages(std::map<uint8_t, std::string>* tags) {
  if constexpr (I < std::variant_size_v<Message>) {
    using Alt = std::variant_alternative_t<I, Message>;
    Message msg{Alt{}};
    const char* name = message_type_name(msg);
    Bytes encoded = encode_message(msg);
    EXPECT_FALSE(encoded.empty()) << name;
    if (!encoded.empty()) {
      auto [it, inserted] = tags->emplace(encoded[0], name);
      EXPECT_TRUE(inserted) << "duplicate wire tag " << int{encoded[0]}
                            << ": " << it->second << " vs " << name;
      EXPECT_EQ(encoded.size(), message_wire_size(msg)) << name;
      auto decoded = decode_message(as_span(encoded));
      if (!decoded.has_value()) {
        ADD_FAILURE() << name << ": default instance does not decode";
      } else {
        EXPECT_EQ(decoded->index(), I) << name;
        EXPECT_EQ(encode_message(*decoded), encoded) << name;
      }
    }
    visit_all_wire_messages<I + 1>(tags);
  }
}

TEST(Messages, AllWireMessagesHaveUniqueTagsAndRoundTrip) {
  std::map<uint8_t, std::string> tags;
  visit_all_wire_messages(&tags);
  EXPECT_EQ(tags.size(), std::variant_size_v<Message>);
}

TEST(Messages, FuzzDecodeDoesNotCrash) {
  Rng fuzz(123);
  for (int i = 0; i < 2000; ++i) {
    Bytes data = fuzz.bytes(fuzz.below(200));
    (void)decode_message(as_span(data));  // must not crash or hang
  }
}

TEST(Messages, FuzzTruncatedRealMessages) {
  Message msg(PrePrepareMsg{7, 3, random_block(4)});
  Bytes encoded = encode_message(msg);
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = decode_message(ByteSpan{encoded.data(), len});
    // Truncation must never produce a successfully-decoded full message
    // (the reader latches failure on underflow).
    if (decoded.has_value()) {
      EXPECT_EQ(encode_message(*decoded).size(), len);
    }
  }
}

}  // namespace
}  // namespace sbft
