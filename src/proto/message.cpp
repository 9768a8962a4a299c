#include "proto/message.h"

#include <cstring>

#include "common/serde.h"
#include "crypto/sha256.h"

namespace sbft {

using crypto::Sha256;

// ---------------------------------------------------------------------------
// Digests

Digest Request::digest() const {
  Writer w;
  w.u32(client);
  w.u64(timestamp);
  w.bytes(as_span(op));
  return crypto::sha256(as_span(w.data()));
}

Digest Block::digest() const {
  Sha256 h;
  h.update("sbft.block");
  for (const Request& r : requests) {
    Digest rd = r.digest();
    h.update(as_span(rd));
  }
  return h.finish();
}

const Digest& SealedBlock::digest() const {
  std::optional<Digest>& memo = body_->digest;
  if (!memo) memo = body_->block.digest();
  return *memo;
}

size_t Block::wire_size() const {
  size_t total = 4;
  for (const Request& r : requests) total += r.wire_size();
  return total;
}

Digest slot_hash(SeqNum s, ViewNum v, const Digest& block_digest) {
  Writer w;
  w.str("sbft.slot");
  w.u64(s);
  w.u64(v);
  w.digest(block_digest);
  return crypto::sha256(as_span(w.data()));
}

Digest commit_hash(const Digest& tau_signature_digest) {
  Writer w;
  w.str("sbft.commit");
  w.digest(tau_signature_digest);
  return crypto::sha256(as_span(w.data()));
}

Digest ExecCertificate::exec_digest() const {
  Writer w;
  w.str("sbft.exec");
  w.u64(seq);
  w.digest(state_root);
  w.digest(ops_root);
  w.digest(prev_exec_digest);
  return crypto::sha256(as_span(w.data()));
}

Digest genesis_exec_digest() { return crypto::sha256("sbft.genesis"); }

Digest empty_ops_root() { return crypto::sha256("sbft.empty-ops"); }

Digest exec_leaf(ClientId client, uint64_t timestamp, const Digest& value_digest) {
  Writer w;
  w.u32(client);
  w.u64(timestamp);
  w.digest(value_digest);
  return merkle::leaf_hash(as_span(w.data()));
}

// ---------------------------------------------------------------------------
// Encoding helpers

namespace {

enum class Tag : uint8_t {
  kClientRequest = 1, kPrePrepare, kSignShare, kFullCommitProof, kPrepare,
  kCommitShare, kFullCommitProofSlow, kSignState, kFullExecuteProof,
  kExecuteAck, kClientReply, kViewChange, kNewView, kGetBlockRequest,
  kGetBlockReply, kStateTransferRequest,
  // 17 was the retired monolithic state-transfer reply; pinning the next tag
  // keeps every later value wire-stable.
  kPbftPrepare = 18, kPbftCommit, kPbftCheckpoint, kPbftViewChange, kPbftNewView,
  // Chunked state transfer (appended; earlier tag values are wire-stable).
  kStateManifest, kStateChunkRequest, kStateChunk,
  // Group reconfiguration (appended).
  kReconfigBlock,
  // Cross-shard transactions (appended).
  kTxVote, kTxDecision, kTxResult,
};

/// Reads a count prefix for elements that each encode to at least
/// `min_bytes`. A count the bytes left cannot hold fails the reader and reads
/// as 0, so a forged count neither allocates nor decodes as a shorter value.
uint32_t get_count(Reader& r, size_t min_bytes) {
  uint32_t n = r.u32();
  if (uint64_t{n} * min_bytes > r.remaining()) {
    r.fail();
    return 0;
  }
  return n;
}

// Smallest encodings of the count-prefixed elements (every byte string empty).
constexpr size_t kMinRequestBytes = 4 + 8 + 4 + 4;
constexpr size_t kMinCertBytes = 8 + 3 * 32 + 4;
constexpr size_t kMinSlotEvidenceBytes =
    8 + 1 + 8 + 32 + 4 + 4 + 1 + 8 + 32 + 4 + 1;
constexpr size_t kMinViewChangeBytes = 4 + 8 + 8 + kMinCertBytes + 4;
constexpr size_t kMinPbftCertBytes = 8 + 8 + 32 + 4;
constexpr size_t kMinPbftViewChangeBytes = 4 + 8 + 8 + 4;
constexpr size_t kMinTxVoteBytes = 4 + 1 + 4;
constexpr size_t kMinTxGroupCertBytes = 4 + 1 + 4;
constexpr size_t kMinTxShardOpsBytes = 4 + 4;
constexpr size_t kMinCheckpointShareBytes = 4 + 4;
constexpr size_t kMinReplicaInfoBytes = 4 + 4;

void put(Writer& w, const Request& r) {
  w.u32(r.client);
  w.u64(r.timestamp);
  w.bytes(as_span(r.op));
  w.bytes(as_span(r.client_sig));
}

Request get_request(Reader& r) {
  Request out;
  out.client = r.u32();
  out.timestamp = r.u64();
  out.op = r.bytes();
  out.client_sig = r.bytes();
  return out;
}

void put(Writer& w, const Block& b) {
  w.u32(static_cast<uint32_t>(b.requests.size()));
  for (const Request& r : b.requests) put(w, r);
}

void put(Writer& w, const SealedBlock& b) { put(w, *b); }

Block get_block(Reader& r) {
  Block out;
  uint32_t n = get_count(r, kMinRequestBytes);
  out.requests.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) out.requests.push_back(get_request(r));
  return out;
}

void put(Writer& w, const ExecCertificate& c) {
  w.u64(c.seq);
  w.digest(c.state_root);
  w.digest(c.ops_root);
  w.digest(c.prev_exec_digest);
  w.bytes(as_span(c.pi_sig));
}

ExecCertificate get_cert(Reader& r) {
  ExecCertificate c;
  c.seq = r.u64();
  c.state_root = r.digest();
  c.ops_root = r.digest();
  c.prev_exec_digest = r.digest();
  c.pi_sig = r.bytes();
  return c;
}

void put(Writer& w, const SlotEvidence& e) {
  w.u64(e.seq);
  w.u8(static_cast<uint8_t>(e.lm_kind));
  w.u64(e.lm_view);
  w.digest(e.lm_block_digest);
  w.bytes(as_span(e.lm_sig));
  w.bytes(as_span(e.lm_inner_sig));
  w.u8(static_cast<uint8_t>(e.fm_kind));
  w.u64(e.fm_view);
  w.digest(e.fm_block_digest);
  w.bytes(as_span(e.fm_sig));
  w.boolean(e.block.has_value());
  if (e.block) put(w, *e.block);
}

SlotEvidence get_slot_evidence(Reader& r) {
  SlotEvidence e;
  e.seq = r.u64();
  e.lm_kind = static_cast<SlowEvidence>(r.u8());
  e.lm_view = r.u64();
  e.lm_block_digest = r.digest();
  e.lm_sig = r.bytes();
  e.lm_inner_sig = r.bytes();
  e.fm_kind = static_cast<FastEvidence>(r.u8());
  e.fm_view = r.u64();
  e.fm_block_digest = r.digest();
  e.fm_sig = r.bytes();
  if (r.boolean()) e.block = get_block(r);
  return e;
}

void put(Writer& w, const ViewChangeMsg& m) {
  w.u32(m.sender);
  w.u64(m.next_view);
  w.u64(m.ls);
  put(w, m.checkpoint);
  w.u32(static_cast<uint32_t>(m.slots.size()));
  for (const SlotEvidence& e : m.slots) put(w, e);
}

ViewChangeMsg get_view_change(Reader& r) {
  ViewChangeMsg m;
  m.sender = r.u32();
  m.next_view = r.u64();
  m.ls = r.u64();
  m.checkpoint = get_cert(r);
  uint32_t n = get_count(r, kMinSlotEvidenceBytes);
  m.slots.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) m.slots.push_back(get_slot_evidence(r));
  return m;
}

void put(Writer& w, const ReconfigDelta& d) {
  w.u32(static_cast<uint32_t>(d.adds.size()));
  for (const ReplicaInfo& info : d.adds) {
    w.u32(info.id);
    w.u32(info.node);
  }
  w.u32(static_cast<uint32_t>(d.removes.size()));
  for (ReplicaId r : d.removes) w.u32(r);
  w.u32(d.new_f);
  w.u32(d.new_c);
}

ReconfigDelta get_reconfig_delta(Reader& r) {
  ReconfigDelta d;
  uint32_t adds = get_count(r, kMinReplicaInfoBytes);
  for (uint32_t i = 0; i < adds && r.ok(); ++i) {
    ReplicaInfo info;
    info.id = r.u32();
    info.node = r.u32();
    d.adds.push_back(info);
  }
  uint32_t removes = get_count(r, 4);
  for (uint32_t i = 0; i < removes && r.ok(); ++i) d.removes.push_back(r.u32());
  d.new_f = r.u32();
  d.new_c = r.u32();
  return d;
}

void put(Writer& w, const ShardTx& tx) {
  w.u64(tx.txid);
  w.u32(tx.coordinator);
  w.u32(static_cast<uint32_t>(tx.shards.size()));
  for (const TxShardOps& s : tx.shards) {
    w.u32(s.group);
    w.u32(static_cast<uint32_t>(s.ops.size()));
    for (const Bytes& op : s.ops) w.bytes(as_span(op));
  }
}

ShardTx get_shard_tx(Reader& r) {
  ShardTx tx;
  tx.txid = r.u64();
  tx.coordinator = r.u32();
  uint32_t shards = get_count(r, kMinTxShardOpsBytes);
  for (uint32_t i = 0; i < shards && r.ok(); ++i) {
    TxShardOps s;
    s.group = r.u32();
    uint32_t ops = get_count(r, 4);
    for (uint32_t j = 0; j < ops && r.ok(); ++j) s.ops.push_back(r.bytes());
    tx.shards.push_back(std::move(s));
  }
  return tx;
}

void put(Writer& w, const TxGroupCert& c) {
  w.u32(c.group);
  w.boolean(c.commit);
  w.u32(static_cast<uint32_t>(c.votes.size()));
  for (const TxVote& v : c.votes) {
    w.u32(v.replica);
    w.boolean(v.commit);
    w.bytes(as_span(v.sig));
  }
}

TxGroupCert get_tx_group_cert(Reader& r) {
  TxGroupCert c;
  c.group = r.u32();
  c.commit = r.boolean();
  uint32_t n = get_count(r, kMinTxVoteBytes);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    TxVote v;
    v.replica = r.u32();
    v.commit = r.boolean();
    v.sig = r.bytes();
    c.votes.push_back(std::move(v));
  }
  return c;
}

void put(Writer& w, const TxDecision& d) {
  w.u64(d.txid);
  w.boolean(d.commit);
  w.u32(static_cast<uint32_t>(d.certs.size()));
  for (const TxGroupCert& c : d.certs) put(w, c);
}

TxDecision get_tx_decision(Reader& r) {
  TxDecision d;
  d.txid = r.u64();
  d.commit = r.boolean();
  uint32_t n = get_count(r, kMinTxGroupCertBytes);
  for (uint32_t i = 0; i < n && r.ok(); ++i) d.certs.push_back(get_tx_group_cert(r));
  return d;
}

void put(Writer& w, const std::vector<CheckpointSigShare>& proof) {
  w.u32(static_cast<uint32_t>(proof.size()));
  for (const CheckpointSigShare& s : proof) {
    w.u32(s.replica);
    w.bytes(as_span(s.sig));
  }
}

std::vector<CheckpointSigShare> get_checkpoint_proof(Reader& r) {
  std::vector<CheckpointSigShare> proof;
  uint32_t n = get_count(r, kMinCheckpointShareBytes);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    CheckpointSigShare s;
    s.replica = r.u32();
    s.sig = r.bytes();
    proof.push_back(std::move(s));
  }
  return proof;
}

void put(Writer& w, const merkle::BlockProof& p) { w.bytes(as_span(p.encode())); }

merkle::BlockProof get_block_proof(Reader& r) {
  auto p = merkle::BlockProof::decode(as_span(r.bytes()));
  if (!p) r.fail();
  return p.value_or(merkle::BlockProof{});
}

void put(Writer& w, const PbftPreparedCert& c) {
  w.u64(c.seq);
  w.u64(c.view);
  w.digest(c.h);
  put(w, c.block);
}

PbftPreparedCert get_pbft_cert(Reader& r) {
  PbftPreparedCert c;
  c.seq = r.u64();
  c.view = r.u64();
  c.h = r.digest();
  c.block = get_block(r);
  return c;
}

void put(Writer& w, const PbftViewChangeMsg& m) {
  w.u32(m.sender);
  w.u64(m.next_view);
  w.u64(m.ls);
  w.u32(static_cast<uint32_t>(m.prepared.size()));
  for (const auto& c : m.prepared) put(w, c);
}

PbftViewChangeMsg get_pbft_view_change(Reader& r) {
  PbftViewChangeMsg m;
  m.sender = r.u32();
  m.next_view = r.u64();
  m.ls = r.u64();
  uint32_t n = get_count(r, kMinPbftCertBytes);
  for (uint32_t i = 0; i < n && r.ok(); ++i) m.prepared.push_back(get_pbft_cert(r));
  return m;
}

struct Encoder {
  Writer& w;

  void operator()(const ClientRequestMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kClientRequest));
    put(w, m.request);
  }
  void operator()(const PrePrepareMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPrePrepare));
    w.u64(m.seq);
    w.u64(m.view);
    put(w, m.block);
  }
  void operator()(const SignShareMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kSignShare));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.block_digest);
    w.digest(m.h);
    w.u32(m.replica);
    w.bytes(as_span(m.sigma_share));
    w.bytes(as_span(m.tau_share));
  }
  void operator()(const FullCommitProofMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kFullCommitProof));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.block_digest);
    w.bytes(as_span(m.sigma_sig));
  }
  void operator()(const PrepareMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPrepare));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.block_digest);
    w.bytes(as_span(m.tau_sig));
  }
  void operator()(const CommitShareMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kCommitShare));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.commit_digest);
    w.u32(m.replica);
    w.bytes(as_span(m.tau_share));
  }
  void operator()(const FullCommitProofSlowMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kFullCommitProofSlow));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.block_digest);
    w.bytes(as_span(m.tau_sig));
    w.bytes(as_span(m.tau_tau_sig));
  }
  void operator()(const SignStateMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kSignState));
    w.u64(m.seq);
    w.u32(m.replica);
    w.digest(m.exec_digest);
    w.bytes(as_span(m.pi_share));
  }
  void operator()(const FullExecuteProofMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kFullExecuteProof));
    w.u64(m.seq);
    w.digest(m.exec_digest);
    w.bytes(as_span(m.pi_sig));
  }
  void operator()(const ExecuteAckMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kExecuteAck));
    w.u32(m.client);
    w.u64(m.timestamp);
    w.u64(m.index);
    w.bytes(as_span(m.value));
    put(w, m.cert);
    put(w, m.proof);
  }
  void operator()(const ClientReplyMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kClientReply));
    w.u32(m.replica);
    w.u32(m.client);
    w.u64(m.timestamp);
    w.u64(m.seq);
    w.bytes(as_span(m.value));
  }
  void operator()(const ViewChangeMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kViewChange));
    put(w, m);
  }
  void operator()(const NewViewMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kNewView));
    w.u64(m.view);
    w.u32(static_cast<uint32_t>(m.proofs.size()));
    for (const auto& p : m.proofs) put(w, p);
  }
  void operator()(const GetBlockRequestMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kGetBlockRequest));
    w.u32(m.requester);
    w.u64(m.seq);
    w.digest(m.block_digest);
  }
  void operator()(const GetBlockReplyMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kGetBlockReply));
    w.u64(m.seq);
    put(w, m.block);
  }
  void operator()(const StateTransferRequestMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kStateTransferRequest));
    w.u32(m.requester);
    w.u64(m.have_seq);
    w.u64(m.base_seq);
    w.digest(m.base_root);
  }
  void operator()(const StateManifestMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kStateManifest));
    w.u32(m.donor);
    w.u64(m.seq);
    put(w, m.cert);
    w.digest(m.chunk_root);
    w.u32(m.chunk_count);
    w.u32(m.chunk_size);
    w.u64(m.total_bytes);
    w.u64(m.base_seq);
    w.bytes(as_span(m.delta_bitmap));
    w.u32(static_cast<uint32_t>(m.base_map.size()));
    for (uint32_t j : m.base_map) w.u32(j);
    put(w, m.checkpoint_proof);
  }
  void operator()(const StateChunkRequestMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kStateChunkRequest));
    w.u32(m.requester);
    w.u64(m.seq);
    w.digest(m.chunk_root);
    w.u32(static_cast<uint32_t>(m.indices.size()));
    for (uint32_t i : m.indices) w.u32(i);
  }
  void operator()(const StateChunkMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kStateChunk));
    w.u32(m.donor);
    w.u64(m.seq);
    w.digest(m.chunk_root);
    w.u32(m.index);
    w.u32(m.chunk_count);
    w.bytes(as_span(m.data));
    put(w, m.proof);
  }
  void operator()(const PbftPrepareMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPbftPrepare));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.h);
    w.u32(m.replica);
  }
  void operator()(const PbftCommitMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPbftCommit));
    w.u64(m.seq);
    w.u64(m.view);
    w.digest(m.h);
    w.u32(m.replica);
  }
  void operator()(const PbftCheckpointMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPbftCheckpoint));
    w.u64(m.seq);
    w.digest(m.state_digest);
    w.u32(m.replica);
    w.bytes(as_span(m.sig));
  }
  void operator()(const PbftViewChangeMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPbftViewChange));
    put(w, m);
  }
  void operator()(const PbftNewViewMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kPbftNewView));
    w.u64(m.view);
    w.u32(static_cast<uint32_t>(m.proofs.size()));
    for (const auto& p : m.proofs) put(w, p);
  }
  void operator()(const ReconfigBlockMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kReconfigBlock));
    put(w, m.delta);
    w.u64(m.nonce);
  }
  void operator()(const TxVoteMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kTxVote));
    w.u64(m.txid);
    w.u32(m.group);
    w.u32(m.replica);
    w.boolean(m.commit);
    w.bytes(as_span(m.sig));
  }
  void operator()(const TxDecisionMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kTxDecision));
    w.u64(m.txid);
    w.boolean(m.commit);
    w.u32(static_cast<uint32_t>(m.certs.size()));
    for (const TxGroupCert& c : m.certs) put(w, c);
  }
  void operator()(const TxResultMsg& m) {
    w.u8(static_cast<uint8_t>(Tag::kTxResult));
    w.u64(m.txid);
    w.u32(m.group);
    w.u32(m.replica);
    w.boolean(m.committed);
  }
};

}  // namespace

Bytes encode_exec_certificate(const ExecCertificate& cert) {
  Writer w;
  put(w, cert);
  return std::move(w).take();
}

std::optional<ExecCertificate> decode_exec_certificate(ByteSpan data) {
  Reader r(data);
  ExecCertificate cert = get_cert(r);
  if (!r.at_end()) return std::nullopt;
  return cert;
}

Bytes encode_message(const Message& msg) {
  Writer w;
  std::visit(Encoder{w}, msg);
  return std::move(w).take();
}

std::optional<Message> decode_message(ByteSpan data) {
  Reader r(data);
  Tag tag = static_cast<Tag>(r.u8());
  std::optional<Message> out;
  switch (tag) {
    case Tag::kClientRequest: {
      ClientRequestMsg m;
      m.request = get_request(r);
      out = m;
      break;
    }
    case Tag::kPrePrepare: {
      PrePrepareMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.block = get_block(r);
      out = m;
      break;
    }
    case Tag::kSignShare: {
      SignShareMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.block_digest = r.digest();
      m.h = r.digest();
      m.replica = r.u32();
      m.sigma_share = r.bytes();
      m.tau_share = r.bytes();
      out = m;
      break;
    }
    case Tag::kFullCommitProof: {
      FullCommitProofMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.block_digest = r.digest();
      m.sigma_sig = r.bytes();
      out = m;
      break;
    }
    case Tag::kPrepare: {
      PrepareMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.block_digest = r.digest();
      m.tau_sig = r.bytes();
      out = m;
      break;
    }
    case Tag::kCommitShare: {
      CommitShareMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.commit_digest = r.digest();
      m.replica = r.u32();
      m.tau_share = r.bytes();
      out = m;
      break;
    }
    case Tag::kFullCommitProofSlow: {
      FullCommitProofSlowMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.block_digest = r.digest();
      m.tau_sig = r.bytes();
      m.tau_tau_sig = r.bytes();
      out = m;
      break;
    }
    case Tag::kSignState: {
      SignStateMsg m;
      m.seq = r.u64();
      m.replica = r.u32();
      m.exec_digest = r.digest();
      m.pi_share = r.bytes();
      out = m;
      break;
    }
    case Tag::kFullExecuteProof: {
      FullExecuteProofMsg m;
      m.seq = r.u64();
      m.exec_digest = r.digest();
      m.pi_sig = r.bytes();
      out = m;
      break;
    }
    case Tag::kExecuteAck: {
      ExecuteAckMsg m;
      m.client = r.u32();
      m.timestamp = r.u64();
      m.index = r.u64();
      m.value = r.bytes();
      m.cert = get_cert(r);
      m.proof = get_block_proof(r);
      out = m;
      break;
    }
    case Tag::kClientReply: {
      ClientReplyMsg m;
      m.replica = r.u32();
      m.client = r.u32();
      m.timestamp = r.u64();
      m.seq = r.u64();
      m.value = r.bytes();
      out = m;
      break;
    }
    case Tag::kViewChange: {
      out = get_view_change(r);
      break;
    }
    case Tag::kNewView: {
      NewViewMsg m;
      m.view = r.u64();
      uint32_t n = get_count(r, kMinViewChangeBytes);
      for (uint32_t i = 0; i < n && r.ok(); ++i)
        m.proofs.push_back(get_view_change(r));
      out = m;
      break;
    }
    case Tag::kGetBlockRequest: {
      GetBlockRequestMsg m;
      m.requester = r.u32();
      m.seq = r.u64();
      m.block_digest = r.digest();
      out = m;
      break;
    }
    case Tag::kGetBlockReply: {
      GetBlockReplyMsg m;
      m.seq = r.u64();
      m.block = get_block(r);
      out = m;
      break;
    }
    case Tag::kStateTransferRequest: {
      StateTransferRequestMsg m;
      m.requester = r.u32();
      m.have_seq = r.u64();
      m.base_seq = r.u64();
      m.base_root = r.digest();
      out = m;
      break;
    }
    case Tag::kStateManifest: {
      StateManifestMsg m;
      m.donor = r.u32();
      m.seq = r.u64();
      m.cert = get_cert(r);
      m.chunk_root = r.digest();
      m.chunk_count = r.u32();
      m.chunk_size = r.u32();
      m.total_bytes = r.u64();
      m.base_seq = r.u64();
      m.delta_bitmap = r.bytes();
      uint32_t n = r.u32();
      // Must admit one entry per chunk up to the manager's chunk-count bound
      // (1u << 20), or an honest mostly-unchanged delta manifest for a huge
      // snapshot would be undecodable. Bound by the bytes actually present
      // before reserving — a forged count must not allocate megabytes.
      if (n > (1u << 20) || uint64_t{n} * 4 > r.remaining()) return std::nullopt;
      m.base_map.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) m.base_map.push_back(r.u32());
      m.checkpoint_proof = get_checkpoint_proof(r);
      out = m;
      break;
    }
    case Tag::kStateChunkRequest: {
      StateChunkRequestMsg m;
      m.requester = r.u32();
      m.seq = r.u64();
      m.chunk_root = r.digest();
      uint32_t n = get_count(r, 4);
      m.indices.reserve(n);
      for (uint32_t i = 0; i < n && r.ok(); ++i) m.indices.push_back(r.u32());
      out = m;
      break;
    }
    case Tag::kStateChunk: {
      StateChunkMsg m;
      m.donor = r.u32();
      m.seq = r.u64();
      m.chunk_root = r.digest();
      m.index = r.u32();
      m.chunk_count = r.u32();
      m.data = r.bytes();
      m.proof = get_block_proof(r);
      out = m;
      break;
    }
    case Tag::kPbftPrepare: {
      PbftPrepareMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.h = r.digest();
      m.replica = r.u32();
      out = m;
      break;
    }
    case Tag::kPbftCommit: {
      PbftCommitMsg m;
      m.seq = r.u64();
      m.view = r.u64();
      m.h = r.digest();
      m.replica = r.u32();
      out = m;
      break;
    }
    case Tag::kPbftCheckpoint: {
      PbftCheckpointMsg m;
      m.seq = r.u64();
      m.state_digest = r.digest();
      m.replica = r.u32();
      m.sig = r.bytes();
      out = m;
      break;
    }
    case Tag::kPbftViewChange: {
      out = get_pbft_view_change(r);
      break;
    }
    case Tag::kPbftNewView: {
      PbftNewViewMsg m;
      m.view = r.u64();
      uint32_t n = get_count(r, kMinPbftViewChangeBytes);
      for (uint32_t i = 0; i < n && r.ok(); ++i)
        m.proofs.push_back(get_pbft_view_change(r));
      out = m;
      break;
    }
    case Tag::kReconfigBlock: {
      ReconfigBlockMsg m;
      m.delta = get_reconfig_delta(r);
      m.nonce = r.u64();
      out = m;
      break;
    }
    case Tag::kTxVote: {
      TxVoteMsg m;
      m.txid = r.u64();
      m.group = r.u32();
      m.replica = r.u32();
      m.commit = r.boolean();
      m.sig = r.bytes();
      out = m;
      break;
    }
    case Tag::kTxDecision: {
      TxDecisionMsg m;
      m.txid = r.u64();
      m.commit = r.boolean();
      uint32_t n = get_count(r, kMinTxGroupCertBytes);
      for (uint32_t i = 0; i < n && r.ok(); ++i)
        m.certs.push_back(get_tx_group_cert(r));
      out = m;
      break;
    }
    case Tag::kTxResult: {
      TxResultMsg m;
      m.txid = r.u64();
      m.group = r.u32();
      m.replica = r.u32();
      m.committed = r.boolean();
      out = m;
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}

size_t message_wire_size(const Message& msg) { return encode_message(msg).size(); }

const char* message_type_name(const Message& msg) {
  struct Namer {
    const char* operator()(const ClientRequestMsg&) { return "client-request"; }
    const char* operator()(const PrePrepareMsg&) { return "pre-prepare"; }
    const char* operator()(const SignShareMsg&) { return "sign-share"; }
    const char* operator()(const FullCommitProofMsg&) { return "full-commit-proof"; }
    const char* operator()(const PrepareMsg&) { return "prepare"; }
    const char* operator()(const CommitShareMsg&) { return "commit"; }
    const char* operator()(const FullCommitProofSlowMsg&) { return "full-commit-proof-slow"; }
    const char* operator()(const SignStateMsg&) { return "sign-state"; }
    const char* operator()(const FullExecuteProofMsg&) { return "full-execute-proof"; }
    const char* operator()(const ExecuteAckMsg&) { return "execute-ack"; }
    const char* operator()(const ClientReplyMsg&) { return "client-reply"; }
    const char* operator()(const ViewChangeMsg&) { return "view-change"; }
    const char* operator()(const NewViewMsg&) { return "new-view"; }
    const char* operator()(const GetBlockRequestMsg&) { return "get-block-request"; }
    const char* operator()(const GetBlockReplyMsg&) { return "get-block-reply"; }
    const char* operator()(const StateTransferRequestMsg&) { return "state-transfer-request"; }
    const char* operator()(const StateManifestMsg&) { return "state-manifest"; }
    const char* operator()(const StateChunkRequestMsg&) { return "state-chunk-request"; }
    const char* operator()(const StateChunkMsg&) { return "state-chunk"; }
    const char* operator()(const PbftPrepareMsg&) { return "pbft-prepare"; }
    const char* operator()(const PbftCommitMsg&) { return "pbft-commit"; }
    const char* operator()(const PbftCheckpointMsg&) { return "pbft-checkpoint"; }
    const char* operator()(const PbftViewChangeMsg&) { return "pbft-view-change"; }
    const char* operator()(const PbftNewViewMsg&) { return "pbft-new-view"; }
    const char* operator()(const ReconfigBlockMsg&) { return "reconfig-block"; }
    const char* operator()(const TxVoteMsg&) { return "tx-vote"; }
    const char* operator()(const TxDecisionMsg&) { return "tx-decision"; }
    const char* operator()(const TxResultMsg&) { return "tx-result"; }
  };
  return std::visit(Namer{}, msg);
}

// ---------------------------------------------------------------------------
// Reconfiguration marker requests (docs/reconfiguration.md)

namespace {
constexpr char kReconfigOpMagic[8] = {'S', 'B', 'F', 'T', 'R', 'C', 'F', 'G'};
}  // namespace

Bytes encode_reconfig_delta(const ReconfigDelta& delta) {
  Writer w;
  put(w, delta);
  return std::move(w).take();
}

std::optional<ReconfigDelta> decode_reconfig_delta(ByteSpan data) {
  Reader r(data);
  ReconfigDelta d = get_reconfig_delta(r);
  if (!r.at_end()) return std::nullopt;
  return d;
}

Request make_reconfig_request(const ReconfigDelta& delta, uint64_t nonce) {
  Request req;
  req.client = kReconfigClient;
  req.timestamp = nonce;
  Writer w;
  w.raw(ByteSpan{reinterpret_cast<const uint8_t*>(kReconfigOpMagic),
                 sizeof(kReconfigOpMagic)});
  put(w, delta);
  req.op = std::move(w).take();
  return req;
}

std::optional<ReconfigDelta> decode_reconfig_request(const Request& req) {
  if (req.client != kReconfigClient) return std::nullopt;
  if (req.op.size() < sizeof(kReconfigOpMagic) ||
      std::memcmp(req.op.data(), kReconfigOpMagic, sizeof(kReconfigOpMagic)) != 0) {
    return std::nullopt;
  }
  return decode_reconfig_delta(
      as_span(req.op).subspan(sizeof(kReconfigOpMagic)));
}

// ---------------------------------------------------------------------------
// Cross-shard transaction marker requests (docs/sharding.md)

namespace {
constexpr char kTxPrepareMagic[8] = {'S', 'B', 'F', 'T', 'T', 'X', 'P', 'R'};
constexpr char kTxDecisionMagic[8] = {'S', 'B', 'F', 'T', 'T', 'X', 'D', 'C'};

bool has_magic(const Bytes& op, const char (&magic)[8]) {
  return op.size() >= sizeof(magic) &&
         std::memcmp(op.data(), magic, sizeof(magic)) == 0;
}
}  // namespace

Bytes encode_shard_tx(const ShardTx& tx) {
  Writer w;
  put(w, tx);
  return std::move(w).take();
}

std::optional<ShardTx> decode_shard_tx(ByteSpan data) {
  Reader r(data);
  ShardTx tx = get_shard_tx(r);
  if (!r.at_end()) return std::nullopt;
  return tx;
}

Request make_tx_prepare_request(const ShardTx& tx, ClientId client,
                                uint64_t timestamp) {
  Request req;
  req.client = client;
  req.timestamp = timestamp;
  Writer w;
  w.raw(ByteSpan{reinterpret_cast<const uint8_t*>(kTxPrepareMagic),
                 sizeof(kTxPrepareMagic)});
  put(w, tx);
  req.op = std::move(w).take();
  return req;
}

std::optional<ShardTx> decode_tx_prepare_request(const Request& req) {
  if (!has_magic(req.op, kTxPrepareMagic)) return std::nullopt;
  return decode_shard_tx(as_span(req.op).subspan(sizeof(kTxPrepareMagic)));
}

Request make_tx_decision_request(const TxDecision& decision) {
  Request req;
  req.client = kShardTxClient;
  req.timestamp = decision.txid;  // txids are unique, not monotone: the
                                  // execution path bypasses the reply cache
  Writer w;
  w.raw(ByteSpan{reinterpret_cast<const uint8_t*>(kTxDecisionMagic),
                 sizeof(kTxDecisionMagic)});
  put(w, decision);
  req.op = std::move(w).take();
  return req;
}

std::optional<TxDecision> decode_tx_decision_request(const Request& req) {
  if (req.client != kShardTxClient) return std::nullopt;
  if (!has_magic(req.op, kTxDecisionMagic)) return std::nullopt;
  Reader r(as_span(req.op).subspan(sizeof(kTxDecisionMagic)));
  TxDecision d = get_tx_decision(r);
  if (!r.at_end()) return std::nullopt;
  return d;
}

}  // namespace sbft
