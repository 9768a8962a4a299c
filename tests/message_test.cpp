#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "common/serde.h"
#include "crypto/sha256.h"
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

TEST(Messages, DecodeCapsManifestBaseMapAtTheChunkBound) {
  // One base_map entry per chunk, up to the state-transfer chunk-count bound
  // of 1 << 20; a longer map is rejected even when the bytes are present.
  StateManifestMsg manifest;
  manifest.base_map.assign(1u << 20, 7);
  Bytes at_cap = encode_message(Message(manifest));
  EXPECT_TRUE(decode_message(as_span(at_cap)).has_value());
  manifest.base_map.push_back(7);
  Bytes over_cap = encode_message(Message(manifest));
  EXPECT_EQ(over_cap.size(), message_wire_size(Message(manifest)));
  EXPECT_FALSE(decode_message(as_span(over_cap)).has_value());
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

TEST(SealedBlocks, LedgerRecordIsTheEncodedPrePrepareSharedByCopies) {
  const SealedBlock a = random_block(3);
  const auto encoding = [&](SeqNum s, ViewNum v) {
    return encode_message(Message(PrePrepareMsg{s, v, a}));
  };
  const auto record = a.ledger_record(7, 2);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(*record, encoding(7, 2));
  // Memoized: a repeat call, or one through a copy, returns the same buffer.
  EXPECT_EQ(a.ledger_record(7, 2), record);
  const SealedBlock b = a;
  EXPECT_EQ(b.ledger_record(7, 2), record);
  // Another view or seq gets that (s, v)'s encoding, never the stale one.
  EXPECT_EQ(*b.ledger_record(7, 3), encoding(7, 3));
  EXPECT_EQ(*a.ledger_record(8, 3), encoding(8, 3));
  EXPECT_EQ(*a.ledger_record(8, 2), encoding(8, 2));
  EXPECT_EQ(*b.ledger_record(7, 2), encoding(7, 2));
  // A record handed out earlier keeps its bytes when the memo moves on.
  EXPECT_EQ(*record, encoding(7, 2));
  // Sealing equal contents again makes a second buffer with equal bytes.
  const SealedBlock c = *a;
  EXPECT_NE(c.ledger_record(7, 2), a.ledger_record(7, 2));
  EXPECT_EQ(*c.ledger_record(7, 2), *record);
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
// Golden wire format. Round trips pass for any layout the encoder and decoder
// agree on, so a field list reordered the same way in both directions, or two
// swapped tags, would slip through them. These pins fix the exact bytes (as
// length plus SHA-256) of one fixed, fully populated instance of every wire
// type: changing a literal below is changing the wire format.

/// `n` bytes counting up from `start`.
Bytes fill(size_t n, uint8_t start) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(start + i);
  return out;
}

Digest fixed_digest(uint8_t start) {
  Digest d;
  for (size_t i = 0; i < d.size(); ++i) d[i] = static_cast<uint8_t>(start + i);
  return d;
}

Request fixed_request(uint8_t k) {
  return Request{100u + k, 1000u + k, fill(5u + k, k), fill(3, 0x80 + k)};
}

SealedBlock fixed_block() {
  Block b;
  b.requests = {fixed_request(1), fixed_request(2)};
  return b;
}

ExecCertificate fixed_cert() {
  return ExecCertificate{0x1122334455667788, fixed_digest(0x10),
                         fixed_digest(0x30), fixed_digest(0x50), fill(4, 0x70)};
}

merkle::BlockProof fixed_proof() {
  merkle::BlockProof p;
  p.index = 1;
  p.leaf_count = 3;
  p.path = {fixed_digest(0x90), fixed_digest(0xb0)};
  return p;
}

ViewChangeMsg fixed_view_change() {
  SlotEvidence e;
  e.seq = 129;
  e.lm_kind = SlowEvidence::kFullProof;
  e.lm_view = 4;
  e.lm_block_digest = fixed_digest(0x01);
  e.lm_sig = fill(3, 0xa0);
  e.lm_inner_sig = fill(2, 0xb0);
  e.fm_kind = FastEvidence::kVote;
  e.fm_view = 5;
  e.fm_block_digest = fixed_digest(0x02);
  e.fm_sig = fill(4, 0xc0);
  e.block = fixed_block();
  SlotEvidence bare;
  bare.seq = 130;
  bare.lm_kind = SlowEvidence::kPrepareCert;
  bare.lm_view = 6;
  bare.lm_block_digest = fixed_digest(0x03);
  bare.lm_sig = fill(1, 0xd0);
  return ViewChangeMsg{2, 7, 128, fixed_cert(), {e, bare}};
}

ReconfigDelta fixed_delta() {
  return ReconfigDelta{{{5, 6}, {7, 8}}, {2, 3}, 2, 1};
}

ShardTx fixed_shard_tx() {
  return ShardTx{0xabcdef0123, 1,
                 {TxShardOps{1, {fill(3, 1), fill(2, 9)}},
                  TxShardOps{3, {fill(4, 5)}}}};
}

TxGroupCert fixed_group_cert(uint32_t group) {
  return TxGroupCert{
      group, true, {{1, true, fill(3, 0x21)}, {2, true, fill(3, 0x31)}}};
}

PbftViewChangeMsg fixed_pbft_view_change() {
  PbftPreparedCert cert{40, 3, fixed_digest(0x44), fixed_block()};
  PbftPreparedCert other{41, 3, fixed_digest(0x45), Block{{fixed_request(3)}}};
  return PbftViewChangeMsg{4, 5, 32, {cert, other}};
}

/// One fully populated instance per Message alternative, in variant order.
std::vector<Message> golden_messages() {
  StateManifestMsg manifest{3,
                            128,
                            fixed_cert(),
                            fixed_digest(0x60),
                            17,
                            4096,
                            16 * 4096 + 123,
                            112,
                            Bytes{0x03, 0x80, 0x01},
                            {2, 3, 4},
                            {{1, fill(2, 0x11)}, {4, fill(3, 0x12)}}};
  return {
      Message(ClientRequestMsg{fixed_request(0)}),
      Message(PrePrepareMsg{7, 3, fixed_block()}),
      Message(SignShareMsg{9, 2, fixed_digest(0x04), fixed_digest(0x05), 4,
                           fill(3, 0x40), fill(2, 0x50)}),
      Message(FullCommitProofMsg{1, 2, fixed_digest(0x06), fill(5, 0x41)}),
      Message(PrepareMsg{3, 4, fixed_digest(0x07), fill(4, 0x42)}),
      Message(CommitShareMsg{5, 6, fixed_digest(0x08), 7, fill(3, 0x43)}),
      Message(FullCommitProofSlowMsg{8, 9, fixed_digest(0x09), fill(2, 0x44),
                                     fill(3, 0x45)}),
      Message(SignStateMsg{10, 3, fixed_digest(0x0a), fill(3, 0x46)}),
      Message(FullExecuteProofMsg{11, fixed_digest(0x0b), fill(4, 0x47)}),
      Message(ExecuteAckMsg{12, 34, 1, fill(6, 0x48), fixed_cert(),
                            fixed_proof()}),
      Message(ClientReplyMsg{3, 12, 34, 11, fill(5, 0x49)}),
      Message(fixed_view_change()),
      Message(NewViewMsg{8, {fixed_view_change(), fixed_view_change()}}),
      Message(GetBlockRequestMsg{1, 2, fixed_digest(0x0c)}),
      Message(GetBlockReplyMsg{2, fixed_block()}),
      Message(StateTransferRequestMsg{4, 48, 32, fixed_digest(0x0d)}),
      Message(manifest),
      Message(StateChunkRequestMsg{2, 128, fixed_digest(0x0e), {0, 5, 16}}),
      Message(StateChunkMsg{3, 128, fixed_digest(0x0f), 5, 17, fill(9, 0x4a),
                            fixed_proof()}),
      Message(PbftPrepareMsg{1, 2, fixed_digest(0x1a), 3}),
      Message(PbftCommitMsg{4, 5, fixed_digest(0x1b), 6}),
      Message(PbftCheckpointMsg{128, fixed_digest(0x1c), 7, fill(4, 0x4b)}),
      Message(fixed_pbft_view_change()),
      Message(PbftNewViewMsg{
          5, {fixed_pbft_view_change(), fixed_pbft_view_change()}}),
      Message(ReconfigBlockMsg{fixed_delta(), 3}),
      Message(TxVoteMsg{0xabcdef0123, 3, 2, true, fill(4, 0x4c)}),
      Message(TxDecisionMsg{0xabcdef0123, true,
                            {fixed_group_cert(1), fixed_group_cert(3)}}),
      Message(TxResultMsg{0xabcdef0123, 2, 1, true}),
  };
}

/// Every pinned encoding: the messages above, the standalone codecs, and the
/// three marker requests (as the client-request message that carries them).
std::vector<std::pair<std::string, Bytes>> golden_encodings() {
  std::vector<std::pair<std::string, Bytes>> out;
  for (const Message& msg : golden_messages()) {
    out.emplace_back(message_type_name(msg), encode_message(msg));
  }
  TxDecision decision{0xabcdef0123, true,
                      {fixed_group_cert(1), fixed_group_cert(3)}};
  auto marker = [](const Request& req) {
    return encode_message(Message(ClientRequestMsg{req}));
  };
  out.emplace_back("exec-certificate", encode_exec_certificate(fixed_cert()));
  out.emplace_back("reconfig-delta", encode_reconfig_delta(fixed_delta()));
  out.emplace_back("shard-tx", encode_shard_tx(fixed_shard_tx()));
  out.emplace_back("reconfig-marker",
                   marker(make_reconfig_request(fixed_delta(), 9)));
  out.emplace_back("tx-prepare-marker",
                   marker(make_tx_prepare_request(fixed_shard_tx(), 42, 9)));
  out.emplace_back("tx-decision-marker",
                   marker(make_tx_decision_request(decision)));
  return out;
}

struct GoldenWire {
  const char* name;
  size_t size;
  const char* sha256;  // hex
};

constexpr GoldenWire kGoldenWire[] = {
    {"client-request", 29, "61d85d17610c4393b3023c0007ae5800e5e9024cd2f23cc7a1e170a1a0d6201a"},
    {"pre-prepare", 80, "dbd6f8f4e2167f46fe09019f32a10dde4dba2329e558912f82c03a0f79cf3068"},
    {"sign-share", 98, "fe178764155069addaa93134896705b046cc3f2126564c7e2912615e6c214c04"},
    {"full-commit-proof", 58, "0d6cc779cde9f6457fe72e623c1ff3949b53cd280b33dd129ce22d5c79605acd"},
    {"prepare", 57, "15698d785f3551579666a1a54315db61b3a9f5af95e229ceffbcdb2e909ed02b"},
    {"commit", 60, "478b05703f9a29e70a30c2dac2e8895341af2c3dfec25901731b93e48574b3db"},
    {"full-commit-proof-slow", 62, "52f2770401e874916a924e8132abf1e5064a938c20803ee57defee9ccccd2301"},
    {"sign-state", 52, "14e616c022f5d0c0400df030bbb159230c01240fd1e6d3b4ec2aa59b79e2eff2"},
    {"full-execute-proof", 49, "7cdf219d2b0ba501d786de92586a71fdcedf1573f14792f379024920521d35b6"},
    {"execute-ack", 231, "67136f35d208c0851cd5d6576f15288fa080ebf62d488530f9138b9e8cf83924"},
    {"client-reply", 34, "b3a344dbad26955ee1d18c41fac19067ced05de55aa618c61560adcf5bb434ef"},
    {"view-change", 416, "d11e2f29f3a2904f16c4acdafee7bb3773e4fdc69b25541012387a20a8d3fb98"},
    {"new-view", 843, "431b5c1f2bfdb2fee7de1c215067ca14fad8194a572624c7834989625a1697ac"},
    {"get-block-request", 45, "8a8ddc8e32f103c199854c21ccc2b6219a14b57ab0aced4e1cf503393ebc9525"},
    {"get-block-reply", 72, "6fe58b2fb41020587f1f50c4d96c0f90add535079efc751f15b4ef3d0114ded9"},
    {"state-transfer-request", 53, "913750681e88fbae656e273b0b420817b0dd65f0ccf401725904eb29dd197d77"},
    {"state-manifest", 229, "2a927847b8ae40d250a69ecb81851b9f07a84e3fb72fca038dc4d6547322886b"},
    {"state-chunk-request", 61, "7e814ef93cecfe795ae153d0536caa0fa984074be84e998a59e1da2042be792b"},
    {"state-chunk", 154, "8b10c56053886b551dac63c74663befd55b7bcfd4b64096eee841a0128178860"},
    {"pbft-prepare", 53, "56961b13483dc5d39838e962e41a41b5d8780b9746d9fb95d037d6914441228e"},
    {"pbft-commit", 53, "619a2da1e15eccacf084e82930801a289228760e1756365fa9bf5e5ab982c460"},
    {"pbft-checkpoint", 53, "114b93a698d6b43c7cc0cb0f65b93d9593937ef8089a50dafbf167f27b743f31"},
    {"pbft-view-change", 219, "399bf053320b3b0bd7ee86b521abadccc230e0eab4c0a44be7c9f637bf274070"},
    {"pbft-new-view", 449, "ada58f321ed65368d1ccc8ae2173a983e5eaf7c7b681355e3ed82238d8190d07"},
    {"reconfig-block", 49, "db45e742d5304642df7c55c4453c94dabad5bf53ceca0e81b3a197f14862f751"},
    {"tx-vote", 26, "b8d6aefa79c11a02f826f9687e4649645428ca4ad9d8396c83baf940fcd658d0"},
    {"tx-decision", 80, "0a809a7a1d817d36fd005d62565cbd3cff52fa83c4e08c9f23e8e52b6c97e659"},
    {"tx-result", 18, "4aa91037548497d9a34c4dc96e123ff18d5a6e90f55e1cbcb3c59ed92a741dce"},
    {"exec-certificate", 112, "1140dba7faf3c6e69decc17339f1f5dc9824e27564b89b7f791410360e0930ec"},
    {"reconfig-delta", 40, "080a714f7bffcde1bfbc2e97542cef8f16156f4e6ef1948917a069a6c7d3051f"},
    {"shard-tx", 53, "85a48b2124c0b2900e7638a86e7f37da2b0b7ca745e3787717b7d27a6f3cb55a"},
    {"reconfig-marker", 69, "b733e6cf786b35df9e9f6365c694791f374f89dc9f4ed3ac51bdee8ccc7ff08d"},
    {"tx-prepare-marker", 82, "65f8c30e3768c24abae6aa8917af7ccc30e3881f6b5ae82479a335003b419332"},
    {"tx-decision-marker", 108, "a4484cd041fc65ec6de329123a8330c33d537e5923af24d10ca6fa2b22e4b4e2"},
};

TEST(WireFormat, GoldenEncodingsArePinned) {
  const std::vector<Message> msgs = golden_messages();
  ASSERT_EQ(msgs.size(), std::variant_size_v<Message>);
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].index(), i) << message_type_name(msgs[i]);
    expect_roundtrip(msgs[i]);
  }
  const auto actual = golden_encodings();
  ASSERT_EQ(actual.size(), std::size(kGoldenWire));
  for (size_t i = 0; i < actual.size(); ++i) {
    const auto& [name, bytes] = actual[i];
    const std::string sha = to_hex(as_span(crypto::sha256(as_span(bytes))));
    EXPECT_EQ(name, kGoldenWire[i].name);
    EXPECT_EQ(bytes.size(), kGoldenWire[i].size) << name;
    EXPECT_EQ(sha, kGoldenWire[i].sha256)
        << "    {\"" << name << "\", " << bytes.size() << ", \"" << sha << "\"},";
  }
}

TEST(WireFormat, FlagBytesAboveOneAreRejected) {
  // A one-byte flag (a bool field, or an optional's presence byte) has one
  // encoding: 1 decodes as set, and 2 or 0xff fail to decode rather than
  // read as a second encoding of the same message. Each case pairs a message
  // with its flag set and the same message with it clear; the first byte
  // where their encodings differ is the flag.
  auto view_change = [](bool block) {
    ViewChangeMsg vc = fixed_view_change();
    if (!block) vc.slots[0].block.reset();
    return vc;
  };
  auto decision = [](bool commit, bool cert_commit, bool vote_commit) {
    TxDecisionMsg m{0xabcdef0123, commit, {fixed_group_cert(1)}};
    m.certs[0].commit = cert_commit;
    m.certs[0].votes[0].commit = vote_commit;
    return m;
  };
  const std::vector<std::tuple<std::string, Message, Message>> cases = {
      {"view change SlotEvidence.block", view_change(true), view_change(false)},
      {"new view SlotEvidence.block", NewViewMsg{8, {view_change(true)}},
       NewViewMsg{8, {view_change(false)}}},
      {"TxVoteMsg.commit", TxVoteMsg{1, 3, 2, true, fill(4, 0x4c)},
       TxVoteMsg{1, 3, 2, false, fill(4, 0x4c)}},
      {"TxDecisionMsg.commit", decision(true, true, true), decision(false, true, true)},
      {"TxGroupCert.commit", decision(true, true, true), decision(true, false, true)},
      {"TxVote.commit", decision(true, true, true), decision(true, true, false)},
      {"TxResultMsg.committed", TxResultMsg{1, 2, 1, true}, TxResultMsg{1, 2, 1, false}},
  };
  for (const auto& [name, set, clear] : cases) {
    SCOPED_TRACE(name);
    Bytes wire = encode_message(set);
    const Bytes other = encode_message(clear);
    auto flag = std::mismatch(wire.begin(), wire.end(), other.begin(), other.end()).first;
    ASSERT_NE(flag, wire.end());
    ASSERT_EQ(*flag, 1);
    EXPECT_TRUE(decode_message(as_span(wire)).has_value());
    for (uint8_t bad : {uint8_t{2}, uint8_t{0xff}}) {
      *flag = bad;
      EXPECT_FALSE(decode_message(as_span(wire)).has_value()) << "flag byte " << int{bad};
    }
  }
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
