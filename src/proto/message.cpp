#include "proto/message.h"

#include <algorithm>
#include <concepts>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

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

std::shared_ptr<const Bytes> SealedBlock::ledger_record(SeqNum s, ViewNum v) const {
  const Body& body = *body_;
  if (!body.record || body.record_seq != s || body.record_view != v) {
    body.record = std::make_shared<const Bytes>(
        encode_message(Message(PrePrepareMsg{s, v, *this})));
    body.record_seq = s;
    body.record_view = v;
  }
  return body.record;
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
// Wire layouts
//
// fields() names the members of each wire type once, in wire order, and three
// passes walk that one list: Encode writes it, Decode reads it back and Size
// prices it without building the bytes. Scalars are
// little-endian at their own width (bool and the evidence enums take one
// byte), digests are 32 raw bytes, byte strings and lists carry a u32 count,
// an optional carries a presence byte, a sealed block travels as its Block
// and a Merkle proof as the byte string of BlockProof::encode().

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

/// Wire tag and type name of each Message alternative, in variant order.
struct WireType {
  Tag tag;
  const char* name;
};

constexpr WireType kWireTypes[] = {
    {Tag::kClientRequest, "client-request"},
    {Tag::kPrePrepare, "pre-prepare"},
    {Tag::kSignShare, "sign-share"},
    {Tag::kFullCommitProof, "full-commit-proof"},
    {Tag::kPrepare, "prepare"},
    {Tag::kCommitShare, "commit"},
    {Tag::kFullCommitProofSlow, "full-commit-proof-slow"},
    {Tag::kSignState, "sign-state"},
    {Tag::kFullExecuteProof, "full-execute-proof"},
    {Tag::kExecuteAck, "execute-ack"},
    {Tag::kClientReply, "client-reply"},
    {Tag::kViewChange, "view-change"},
    {Tag::kNewView, "new-view"},
    {Tag::kGetBlockRequest, "get-block-request"},
    {Tag::kGetBlockReply, "get-block-reply"},
    {Tag::kStateTransferRequest, "state-transfer-request"},
    {Tag::kStateManifest, "state-manifest"},
    {Tag::kStateChunkRequest, "state-chunk-request"},
    {Tag::kStateChunk, "state-chunk"},
    {Tag::kPbftPrepare, "pbft-prepare"},
    {Tag::kPbftCommit, "pbft-commit"},
    {Tag::kPbftCheckpoint, "pbft-checkpoint"},
    {Tag::kPbftViewChange, "pbft-view-change"},
    {Tag::kPbftNewView, "pbft-new-view"},
    {Tag::kReconfigBlock, "reconfig-block"},
    {Tag::kTxVote, "tx-vote"},
    {Tag::kTxDecision, "tx-decision"},
    {Tag::kTxResult, "tx-result"},
};
static_assert(std::size(kWireTypes) == std::variant_size_v<Message>);

/// T is one of Ts.
template <class T, class... Ts>
concept Is = (std::same_as<T, Ts> || ...);

/// Fixed-width fields: integers, bool and the one-byte evidence enums.
template <class T>
concept Scalar = std::integral<T> || std::is_enum_v<T>;

/// A count-prefixed list whose count the decoder also caps at `max`.
template <class List>
struct AtMost {
  List& list;
  uint32_t max;
};

/// The wire layout of every message and nested wire type: hands `m`'s
/// members, in wire order, to the pass `io`. `m` is const when encoding or
/// sizing and mutable when decoding.
template <class Io, class M>
void fields(Io& io, M& m) {
  using T = std::remove_const_t<M>;
  if constexpr (Is<T, Request>) {
    io(m.client, m.timestamp, m.op, m.client_sig);
  } else if constexpr (Is<T, Block>) {
    io(m.requests);
  } else if constexpr (Is<T, ExecCertificate>) {
    io(m.seq, m.state_root, m.ops_root, m.prev_exec_digest, m.pi_sig);
  } else if constexpr (Is<T, SlotEvidence>) {
    io(m.seq, m.lm_kind, m.lm_view, m.lm_block_digest, m.lm_sig,
       m.lm_inner_sig, m.fm_kind, m.fm_view, m.fm_block_digest, m.fm_sig,
       m.block);
  } else if constexpr (Is<T, ReplicaInfo>) {
    io(m.id, m.node);
  } else if constexpr (Is<T, ReconfigDelta>) {
    io(m.adds, m.removes, m.new_f, m.new_c);
  } else if constexpr (Is<T, TxShardOps>) {
    io(m.group, m.ops);
  } else if constexpr (Is<T, ShardTx>) {
    io(m.txid, m.coordinator, m.shards);
  } else if constexpr (Is<T, TxVote>) {
    io(m.replica, m.commit, m.sig);
  } else if constexpr (Is<T, TxGroupCert>) {
    io(m.group, m.commit, m.votes);
  } else if constexpr (Is<T, TxDecision, TxDecisionMsg>) {
    io(m.txid, m.commit, m.certs);
  } else if constexpr (Is<T, CheckpointSigShare>) {
    io(m.replica, m.sig);
  } else if constexpr (Is<T, PbftPreparedCert>) {
    io(m.seq, m.view, m.h, m.block);
  } else if constexpr (Is<T, ClientRequestMsg>) {  // the messages
    io(m.request);
  } else if constexpr (Is<T, PrePrepareMsg>) {
    io(m.seq, m.view, m.block);
  } else if constexpr (Is<T, SignShareMsg>) {
    io(m.seq, m.view, m.block_digest, m.h, m.replica, m.sigma_share,
       m.tau_share);
  } else if constexpr (Is<T, FullCommitProofMsg>) {
    io(m.seq, m.view, m.block_digest, m.sigma_sig);
  } else if constexpr (Is<T, PrepareMsg>) {
    io(m.seq, m.view, m.block_digest, m.tau_sig);
  } else if constexpr (Is<T, CommitShareMsg>) {
    io(m.seq, m.view, m.commit_digest, m.replica, m.tau_share);
  } else if constexpr (Is<T, FullCommitProofSlowMsg>) {
    io(m.seq, m.view, m.block_digest, m.tau_sig, m.tau_tau_sig);
  } else if constexpr (Is<T, SignStateMsg>) {
    io(m.seq, m.replica, m.exec_digest, m.pi_share);
  } else if constexpr (Is<T, FullExecuteProofMsg>) {
    io(m.seq, m.exec_digest, m.pi_sig);
  } else if constexpr (Is<T, ExecuteAckMsg>) {
    io(m.client, m.timestamp, m.index, m.value, m.cert, m.proof);
  } else if constexpr (Is<T, ClientReplyMsg>) {
    io(m.replica, m.client, m.timestamp, m.seq, m.value);
  } else if constexpr (Is<T, ViewChangeMsg>) {
    io(m.sender, m.next_view, m.ls, m.checkpoint, m.slots);
  } else if constexpr (Is<T, NewViewMsg, PbftNewViewMsg>) {
    io(m.view, m.proofs);
  } else if constexpr (Is<T, GetBlockRequestMsg>) {
    io(m.requester, m.seq, m.block_digest);
  } else if constexpr (Is<T, GetBlockReplyMsg>) {
    io(m.seq, m.block);
  } else if constexpr (Is<T, StateTransferRequestMsg>) {
    io(m.requester, m.have_seq, m.base_seq, m.base_root);
  } else if constexpr (Is<T, StateManifestMsg>) {
    // base_map must admit one entry per chunk up to the manager's chunk-count
    // bound (1u << 20), or an honest mostly-unchanged delta manifest for a
    // huge snapshot would be undecodable.
    io(m.donor, m.seq, m.cert, m.chunk_root, m.chunk_count, m.chunk_size,
       m.total_bytes, m.base_seq, m.delta_bitmap, AtMost{m.base_map, 1u << 20},
       m.checkpoint_proof);
  } else if constexpr (Is<T, StateChunkRequestMsg>) {
    io(m.requester, m.seq, m.chunk_root, m.indices);
  } else if constexpr (Is<T, StateChunkMsg>) {
    io(m.donor, m.seq, m.chunk_root, m.index, m.chunk_count, m.data, m.proof);
  } else if constexpr (Is<T, PbftPrepareMsg, PbftCommitMsg>) {
    io(m.seq, m.view, m.h, m.replica);
  } else if constexpr (Is<T, PbftCheckpointMsg>) {
    io(m.seq, m.state_digest, m.replica, m.sig);
  } else if constexpr (Is<T, PbftViewChangeMsg>) {
    io(m.sender, m.next_view, m.ls, m.prepared);
  } else if constexpr (Is<T, ReconfigBlockMsg>) {
    io(m.delta, m.nonce);
  } else if constexpr (Is<T, TxVoteMsg>) {
    io(m.txid, m.group, m.replica, m.commit, m.sig);
  } else {
    static_assert(Is<T, TxResultMsg>, "type has no wire layout");
    io(m.txid, m.group, m.replica, m.committed);
  }
}

// --- the passes ----------------------------------------------------------------

/// Prices a field list: the size of its encoding, without building it.
struct Size {
  size_t n = 0;

  template <class... Fs>
  void operator()(const Fs&... fs) {
    (add(fs), ...);
  }

  template <Scalar T>
  void add(const T&) {
    n += sizeof(T);
  }
  void add(const Digest&) { n += sizeof(Digest); }
  void add(const Bytes& b) { n += 4 + b.size(); }
  void add(const SealedBlock& b) { add(*b); }
  void add(const merkle::BlockProof& p) { n += 4 + p.encoded_size(); }
  template <class T>
  void add(const std::vector<T>& list) {
    n += 4;
    for (const T& e : list) add(e);
  }
  template <class T>
  void add(const std::optional<T>& v) {
    n += 1;
    if (v) add(*v);
  }
  template <class List>
  void add(const AtMost<List>& capped) {
    add(capped.list);
  }
  template <class T>
  void add(const T& m) {
    fields(*this, m);
  }
};

/// Writes a field list.
struct Encode {
  Writer& w;

  template <class... Fs>
  void operator()(const Fs&... fs) {
    (put(fs), ...);
  }

  template <Scalar T>
  void put(const T& v) {
    if constexpr (sizeof(T) == 1) {
      w.u8(static_cast<uint8_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      w.u32(static_cast<uint32_t>(v));
    } else {
      static_assert(sizeof(T) == 8);
      w.u64(static_cast<uint64_t>(v));
    }
  }
  void put(const Digest& d) { w.digest(d); }
  void put(const Bytes& b) { w.bytes(as_span(b)); }
  void put(const SealedBlock& b) { put(*b); }
  void put(const merkle::BlockProof& p) { put(p.encode()); }
  template <class T>
  void put(const std::vector<T>& list) {
    put(static_cast<uint32_t>(list.size()));
    for (const T& e : list) put(e);
  }
  template <class T>
  void put(const std::optional<T>& v) {
    put(v.has_value());
    if (v) put(*v);
  }
  template <class List>
  void put(const AtMost<List>& capped) {
    put(capped.list);
  }
  template <class T>
  void put(const T& m) {
    fields(*this, m);
  }
};

/// Encoded size of a default T: the fewest bytes any T occupies on the wire.
template <class T>
size_t smallest() {
  static const size_t bytes = [] {
    Size size;
    size(T{});
    return size.n;
  }();
  return bytes;
}

/// Reads a field list back. A count prefix the bytes left cannot hold fails
/// the reader, so a forged count neither allocates nor decodes as a shorter
/// list; so does a malformed Merkle proof.
struct Decode {
  Reader& r;

  template <class... Fs>
  void operator()(Fs&&... fs) {
    (get(fs), ...);
  }

  template <Scalar T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r.boolean();
    } else if constexpr (sizeof(T) == 1) {
      v = static_cast<T>(r.u8());
    } else if constexpr (sizeof(T) == 4) {
      v = static_cast<T>(r.u32());
    } else {
      v = static_cast<T>(r.u64());
    }
  }
  void get(Digest& d) { d = r.digest(); }
  void get(Bytes& b) { b = r.bytes(); }
  void get(SealedBlock& b) {
    Block block;
    get(block);
    b = std::move(block);
  }
  void get(merkle::BlockProof& p) {
    auto proof = merkle::BlockProof::decode(as_span(r.bytes()));
    if (proof) {
      p = std::move(*proof);
    } else {
      r.fail();
    }
  }
  template <class T>
  void get(std::vector<T>& list, uint32_t max = UINT32_MAX) {
    const uint32_t n = r.u32();
    if (n > max || uint64_t{n} * smallest<T>() > r.remaining()) {
      r.fail();
      return;
    }
    list.resize(n);
    for (T& e : list) get(e);
  }
  template <class T>
  void get(std::optional<T>& v) {
    if (r.boolean()) get(v.emplace());
  }
  template <class List>
  void get(AtMost<List>& capped) {
    get(capped.list, capped.max);
  }
  template <class T>
  void get(T& m) {
    fields(*this, m);
  }
};

template <class T>
Bytes encode_fields(const T& value) {
  Writer w;
  Encode{w}(value);
  return std::move(w).take();
}

/// Decodes a T that spans all of `data`.
template <class T>
std::optional<T> decode_fields(ByteSpan data) {
  Reader r(data);
  T value;
  Decode{r}(value);
  if (!r.at_end()) return std::nullopt;
  return value;
}

/// Default instance of Message alternative `index`.
template <size_t... I>
Message blank_message(size_t index, std::index_sequence<I...>) {
  Message msg;
  ((index == I ? void(msg.emplace<I>()) : void()), ...);
  return msg;
}

}  // namespace

Bytes encode_message(const Message& msg) {
  Writer w;
  std::visit([&](const auto& m) { Encode{w}(kWireTypes[msg.index()].tag, m); },
             msg);
  return std::move(w).take();
}

std::optional<Message> decode_message(ByteSpan data) {
  Reader r(data);
  const Tag tag{r.u8()};
  const auto* type =
      std::find_if(std::begin(kWireTypes), std::end(kWireTypes),
                   [&](const WireType& t) { return t.tag == tag; });
  if (type == std::end(kWireTypes)) return std::nullopt;
  Message msg = blank_message(type - std::begin(kWireTypes),
                              std::make_index_sequence<std::size(kWireTypes)>{});
  std::visit(Decode{r}, msg);
  if (!r.at_end()) return std::nullopt;
  return msg;
}

size_t message_wire_size(const Message& msg) {
  Size size;
  std::visit([&](const auto& m) { size(kWireTypes[msg.index()].tag, m); }, msg);
  return size.n;
}

const char* message_type_name(const Message& msg) {
  return kWireTypes[msg.index()].name;
}

Bytes encode_exec_certificate(const ExecCertificate& cert) {
  return encode_fields(cert);
}

std::optional<ExecCertificate> decode_exec_certificate(ByteSpan data) {
  return decode_fields<ExecCertificate>(data);
}

Bytes encode_reconfig_delta(const ReconfigDelta& delta) {
  return encode_fields(delta);
}

std::optional<ReconfigDelta> decode_reconfig_delta(ByteSpan data) {
  return decode_fields<ReconfigDelta>(data);
}

Bytes encode_shard_tx(const ShardTx& tx) { return encode_fields(tx); }

std::optional<ShardTx> decode_shard_tx(ByteSpan data) {
  return decode_fields<ShardTx>(data);
}

// ---------------------------------------------------------------------------
// Marker requests (docs/reconfiguration.md, docs/sharding.md): the op is a
// reserved 8-byte magic followed by the payload's field list.

namespace {

using Magic = char[8];
constexpr Magic kReconfigOpMagic = {'S', 'B', 'F', 'T', 'R', 'C', 'F', 'G'};
constexpr Magic kTxPrepareMagic = {'S', 'B', 'F', 'T', 'T', 'X', 'P', 'R'};
constexpr Magic kTxDecisionMagic = {'S', 'B', 'F', 'T', 'T', 'X', 'D', 'C'};

template <class T>
Request marker_request(ClientId client, uint64_t timestamp, const Magic& magic,
                       const T& payload) {
  Writer w;
  w.raw(as_span(std::string_view(magic, sizeof(Magic))));
  Encode{w}(payload);
  return Request{client, timestamp, std::move(w).take(), {}};
}

/// The payload of a marker op carrying `magic`; nullopt for any other op.
template <class T>
std::optional<T> decode_marker(const Request& req, const Magic& magic) {
  if (req.op.size() < sizeof(Magic) ||
      std::memcmp(req.op.data(), magic, sizeof(Magic)) != 0) {
    return std::nullopt;
  }
  return decode_fields<T>(as_span(req.op).subspan(sizeof(Magic)));
}

}  // namespace

Request make_reconfig_request(const ReconfigDelta& delta, uint64_t nonce) {
  return marker_request(kReconfigClient, nonce, kReconfigOpMagic, delta);
}

std::optional<ReconfigDelta> decode_reconfig_request(const Request& req) {
  if (req.client != kReconfigClient) return std::nullopt;
  return decode_marker<ReconfigDelta>(req, kReconfigOpMagic);
}

Request make_tx_prepare_request(const ShardTx& tx, ClientId client,
                                uint64_t timestamp) {
  return marker_request(client, timestamp, kTxPrepareMagic, tx);
}

std::optional<ShardTx> decode_tx_prepare_request(const Request& req) {
  return decode_marker<ShardTx>(req, kTxPrepareMagic);
}

Request make_tx_decision_request(const TxDecision& decision) {
  // txids are unique, not monotone: the execution path bypasses the reply
  // cache.
  return marker_request(kShardTxClient, decision.txid, kTxDecisionMagic,
                        decision);
}

std::optional<TxDecision> decode_tx_decision_request(const Request& req) {
  if (req.client != kShardTxClient) return std::nullopt;
  return decode_marker<TxDecision>(req, kTxDecisionMagic);
}

}  // namespace sbft
