// Protocol messages for SBFT (§V) and the scale-optimized PBFT baseline (§IX).
//
// Messages are passed by shared_ptr inside the simulator; encode()/decode()
// define the canonical wire format used for size accounting (network
// transmission cost) and for the serde round-trip tests. Threshold signature
// payloads are opaque byte strings produced by src/crypto/threshold.h.
#pragma once

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "merkle/merkle_tree.h"
#include "proto/types.h"

namespace sbft {

// ---------------------------------------------------------------------------
// Requests and decision blocks

struct Request {
  ClientId client = 0;
  uint64_t timestamp = 0;  // strictly monotone per client (§V-A)
  Bytes op;                // opaque service operation
  Bytes client_sig;        // client request signature ([31]; size-modeled)

  Digest digest() const;
  size_t wire_size() const { return 16 + 8 + op.size() + client_sig.size(); }
};

struct Block {
  std::vector<Request> requests;

  Digest digest() const;
  size_t wire_size() const;
};

/// h = H(s || v || digest(block)) — the hash every path signs (§V-C).
Digest slot_hash(SeqNum s, ViewNum v, const Digest& block_digest);
/// Digest signed by the tau(tau(h)) commit round (slow path, §V-E).
Digest commit_hash(const Digest& tau_signature_digest);

/// Chained execution digest d_s = H(s || state_root || ops_root || d_{s-1}).
struct ExecCertificate {
  SeqNum seq = 0;
  Digest state_root{};       // service Merkle root after executing block s
  Digest ops_root{};         // Merkle root over the block's (op, result) leaves
  Digest prev_exec_digest{}; // d_{s-1}
  Bytes pi_sig;              // pi threshold signature over exec_digest()

  Digest exec_digest() const;
  size_t wire_size() const { return 8 + 3 * 32 + pi_sig.size(); }
};

/// d_0 of the chained execution digest (state before any block executed).
Digest genesis_exec_digest();
/// ops_root of a decision block that carries no operations.
Digest empty_ops_root();

/// Standalone ExecCertificate encoding (WAL records, snapshot files); the
/// in-message encoding is identical.
Bytes encode_exec_certificate(const ExecCertificate& cert);
std::optional<ExecCertificate> decode_exec_certificate(ByteSpan data);

/// Leaf of the per-block operations tree for op l. The leaf binds
/// (client, timestamp, output): the pair (client, timestamp) uniquely names
/// the operation (clients sign monotone timestamps, §V-A), and the committed
/// block binds its content, so the client can verify its result without the
/// replicas re-hashing every operation payload.
Digest exec_leaf(ClientId client, uint64_t timestamp, const Digest& value_digest);

// ---------------------------------------------------------------------------
// Common-case messages (§V-C, §V-D, §V-E)

struct ClientRequestMsg {
  Request request;
};

struct PrePrepareMsg {
  SeqNum seq = 0;
  ViewNum view = 0;
  Block block;
};

struct SignShareMsg {  // replica -> C-collectors; carries sigma and tau shares
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest block_digest{};  // collectors verify h == slot_hash(seq, view, .)
  Digest h{};
  ReplicaId replica = 0;
  Bytes sigma_share;
  Bytes tau_share;
};

struct FullCommitProofMsg {  // C-collector -> all (fast path)
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest block_digest{};  // lets receivers rebuild h = slot_hash(seq, view, .)
  Bytes sigma_sig;        // sigma(h)
};

struct PrepareMsg {  // C-collector -> all (slow path trigger)
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest block_digest{};
  Bytes tau_sig;  // tau(h)
};

struct CommitShareMsg {  // replica -> C-collectors (slow path second round)
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest commit_digest{};  // d2 = commit_hash(SHA256(tau(h)))
  ReplicaId replica = 0;
  Bytes tau_share;  // tau_i over d2
};

struct FullCommitProofSlowMsg {  // C-collector -> all (slow path)
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest block_digest{};
  Bytes tau_sig;      // tau(h)
  Bytes tau_tau_sig;  // tau over commit_hash(SHA256(tau(h)))
};

struct SignStateMsg {  // replica -> E-collectors (§V-D)
  SeqNum seq = 0;
  ReplicaId replica = 0;
  Digest exec_digest{};
  Bytes pi_share;
};

struct FullExecuteProofMsg {  // E-collector -> all
  SeqNum seq = 0;
  Digest exec_digest{};
  Bytes pi_sig;
};

struct ExecuteAckMsg {  // E-collector -> client (single-message ack, §V-A)
  ClientId client = 0;
  uint64_t timestamp = 0;
  uint64_t index = 0;  // position l within the decision block
  Bytes value;         // operation output val
  ExecCertificate cert;
  merkle::BlockProof proof;
};

struct ClientReplyMsg {  // per-replica reply (f+1 fallback / non-collector mode)
  ReplicaId replica = 0;
  ClientId client = 0;
  uint64_t timestamp = 0;
  SeqNum seq = 0;
  Bytes value;
};

// ---------------------------------------------------------------------------
// View change (§V-G)

enum class SlowEvidence : uint8_t { kNone = 0, kPrepareCert = 1, kFullProof = 2 };
enum class FastEvidence : uint8_t { kNone = 0, kVote = 1, kFullProof = 2 };

/// Per-slot certificate pair x_j = (lm_j, fm_j) carried by view-change
/// messages. Blocks are attached when the sender has them so the new primary
/// can re-propose without a fetch round.
struct SlotEvidence {
  SeqNum seq = 0;

  SlowEvidence lm_kind = SlowEvidence::kNone;
  ViewNum lm_view = 0;
  Digest lm_block_digest{};
  Bytes lm_sig;        // tau(h) for kPrepareCert; tau(tau(h)) for kFullProof
  Bytes lm_inner_sig;  // the inner tau(h) when lm_kind == kFullProof

  FastEvidence fm_kind = FastEvidence::kNone;
  ViewNum fm_view = 0;
  Digest fm_block_digest{};
  Bytes fm_sig;  // sigma_i(h) share for kVote; sigma(h) for kFullProof

  std::optional<Block> block;  // payload matching the strongest evidence

  size_t wire_size() const;
};

struct ViewChangeMsg {
  ReplicaId sender = 0;
  ViewNum next_view = 0;
  SeqNum ls = 0;  // last stable sequence number
  ExecCertificate checkpoint;  // pi-signed checkpoint at ls (empty at genesis)
  std::vector<SlotEvidence> slots;
};

struct NewViewMsg {
  ViewNum view = 0;
  std::vector<ViewChangeMsg> proofs;  // 2f+2c+1 view-change messages
};

// ---------------------------------------------------------------------------
// Group reconfiguration (docs/reconfiguration.md)

/// Membership delta ordered through the normal agreement path. The resulting
/// roster must satisfy the cluster sizing law exactly:
/// |members ± delta| == 3*new_f + 2*new_c + 1.
struct ReconfigDelta {
  std::vector<ReplicaInfo> adds;  // joining replicas (id + network address)
  std::vector<ReplicaId> removes;
  uint32_t new_f = 0;
  uint32_t new_c = 0;

  size_t wire_size() const { return 8 + adds.size() * 8 + removes.size() * 4 + 8; }
};

Bytes encode_reconfig_delta(const ReconfigDelta& delta);
std::optional<ReconfigDelta> decode_reconfig_delta(ByteSpan data);

/// Administrative request to reorder the replica set. Sent to the primary
/// (the harness injects it on the operator's behalf), which wraps the delta
/// into a reserved marker request (client id 0) and orders it like any block;
/// the epoch takes effect at the next stable checkpoint boundary.
struct ReconfigBlockMsg {
  ReconfigDelta delta;
  uint64_t nonce = 0;  // distinguishes repeated submissions (marker timestamp)
};

/// Client id 0 is reserved for reconfiguration marker requests; real clients
/// occupy node ids >= n and can never carry it.
constexpr ClientId kReconfigClient = 0;

/// Builds the marker Request the primary orders for a reconfiguration.
Request make_reconfig_request(const ReconfigDelta& delta, uint64_t nonce);
/// Decodes a marker request; nullopt when `req` is a normal client request.
std::optional<ReconfigDelta> decode_reconfig_request(const Request& req);

// ---------------------------------------------------------------------------
// Cross-shard transactions (docs/sharding.md)
//
// A deployment partitions the keyspace across independent BFT groups; a
// multi-key transaction touching several groups commits through BFT 2PC:
// every participant group orders a Prepare (locking/validating its keys) and
// votes to the coordinator group, the coordinator orders the Commit/Abort
// decision once it holds a certified vote from every participant, and each
// participant orders the decision to apply or release.

/// One participant group's slice of a cross-shard transaction: the service
/// operations that group applies if the transaction commits.
struct TxShardOps {
  uint32_t group = 0;
  std::vector<Bytes> ops;
};

/// Full transaction body. Every Prepare carries the whole transaction, so
/// each participant (the coordinator group included) can validate the
/// participant set and later apply its own slice without a fetch round.
struct ShardTx {
  uint64_t txid = 0;       // unique (client node id in the high bits)
  uint32_t coordinator = 0;  // lowest participant group id
  std::vector<TxShardOps> shards;  // ascending group order
};

Bytes encode_shard_tx(const ShardTx& tx);
std::optional<ShardTx> decode_shard_tx(ByteSpan data);

/// Client id 1 is reserved for cross-shard decision marker requests (id 0 is
/// kReconfigClient); replica and client node ids in any deployment start past
/// the reserved range, so no real client can carry it.
constexpr ClientId kShardTxClient = 1;

/// Builds the Prepare request a ShardClient sends to one participant group: a
/// normal client request (the sender's own id and per-group monotone
/// timestamp, so the reply cache dedups retries), whose op wraps the
/// transaction under a reserved magic. The marker executor claims it at
/// execution instead of the service.
Request make_tx_prepare_request(const ShardTx& tx, ClientId client,
                                uint64_t timestamp);
/// Decodes a Prepare marker op; nullopt for normal client requests.
std::optional<ShardTx> decode_tx_prepare_request(const Request& req);

/// One replica's vote over (txid, group, commit), authenticated by the
/// deployment's TxAuth HMAC (src/shard/tx_manager.h).
struct TxVote {
  ReplicaId replica = 0;
  bool commit = false;
  Bytes sig;
};

/// f+1 matching votes from one participant group — a certified group vote.
struct TxGroupCert {
  uint32_t group = 0;
  bool commit = false;
  std::vector<TxVote> votes;
};

/// Decision payload ordered as a marker request (client kShardTxClient) in
/// the coordinator and every participant group. Self-certifying: validation
/// happens deterministically at execution, so a Byzantine primary ordering a
/// forged decision is neutralized by every replica rejecting it alike.
struct TxDecision {
  uint64_t txid = 0;
  bool commit = false;  // commit needs f+1 commit votes from EVERY group
  std::vector<TxGroupCert> certs;
};

Request make_tx_decision_request(const TxDecision& decision);
std::optional<TxDecision> decode_tx_decision_request(const Request& req);

/// Participant replica -> coordinator group replicas: this group's vote,
/// emitted when its Prepare executes.
struct TxVoteMsg {
  uint64_t txid = 0;
  uint32_t group = 0;
  ReplicaId replica = 0;
  bool commit = false;
  Bytes sig;  // TxAuth HMAC over (txid, group, replica, commit)
};

/// Coordinator replica -> participant group replicas: the ordered decision
/// plus the vote certificates that justify it.
struct TxDecisionMsg {
  uint64_t txid = 0;
  bool commit = false;
  std::vector<TxGroupCert> certs;
};

/// Participant replica -> client: this group applied (commit) or released
/// (abort) the transaction. The client completes a transaction on f+1
/// matching results from every participant group.
struct TxResultMsg {
  uint64_t txid = 0;
  uint32_t group = 0;
  ReplicaId replica = 0;
  bool committed = false;
};

// ---------------------------------------------------------------------------
// State transfer (§VIII; follows the PBFT code base's mechanism)

/// Fetch of a decision-block payload by digest. Used after a view change when
/// a replica adopted or decided a value whose evidence carried only the
/// digest (a Byzantine view-change sender may omit the block; any of the
/// >= f+c+1 honest replicas that signed it can serve it).
struct GetBlockRequestMsg {
  ReplicaId requester = 0;
  SeqNum seq = 0;
  Digest block_digest{};
};

struct GetBlockReplyMsg {
  SeqNum seq = 0;
  Block block;
};

struct StateTransferRequestMsg {
  ReplicaId requester = 0;
  SeqNum have_seq = 0;  // highest executed sequence at the requester
  // Delta base advertisement (docs/state_transfer.md "delta manifests"): the
  // requester's retained checkpoint, identified by its sequence and the
  // geometry-bound transfer root of its chunked snapshot. base_seq == 0 means
  // no usable base (wiped disk): donors answer with a full manifest.
  SeqNum base_seq = 0;
  Digest base_root{};
};

/// One replica's signature over a checkpoint (seq, state_root) pair. The PBFT
/// baseline ships up to 2f+1 of these with a state-transfer manifest; a
/// fetcher accepts from f+1 (a weak certificate: at least one honest voucher)
/// so it never has to take a single donor's word for a checkpoint's
/// legitimacy (SBFT needs none: its certificates carry the pi threshold
/// signature).
struct CheckpointSigShare {
  ReplicaId replica = 0;
  Bytes sig;
};

// --- chunked state transfer (docs/state_transfer.md is the normative spec) --

/// Donor -> fetcher: describes the chunked form of the donor's shippable
/// (certificate, snapshot) pair. chunk_root is the BlockMerkleTree root over
/// leaf_hash(chunk_i); the fetcher verifies every chunk against it, and the
/// assembled envelope against cert.state_root (the certified binding).
struct StateManifestMsg {
  ReplicaId donor = 0;
  SeqNum seq = 0;  // == cert.seq
  ExecCertificate cert;
  Digest chunk_root{};
  uint32_t chunk_count = 0;
  uint32_t chunk_size = 0;     // bytes per chunk (last chunk may be shorter)
  uint64_t total_bytes = 0;    // size of the snapshot envelope
  // Delta section (base_seq == 0: full manifest, fetch every chunk). When the
  // donor still holds the chunk hashes of the probe's advertised base, it
  // Merkle-diffs the two snapshots: bit i of delta_bitmap set means target
  // chunk i differs from the base and must be fetched; for every unset bit,
  // base_map (in increasing target-index order) names the base chunk index
  // holding identical bytes, so the fetcher seeds it from its local snapshot
  // even across whole-chunk shifts. A lying delta section is caught by the
  // final state-root check and the manifest sender excluded.
  SeqNum base_seq = 0;
  Bytes delta_bitmap;
  std::vector<uint32_t> base_map;
  // PBFT weak checkpoint certificate for `cert` (f+1..2f+1 CheckpointSigShare
  // over (seq, state_root)); empty under SBFT, whose cert carries a pi
  // signature.
  std::vector<CheckpointSigShare> checkpoint_proof;
};

/// Fetcher -> donor: fetch of specific chunks of one transfer. chunk_root
/// here is the *geometry-bound transfer key* (the manifest's tree root hashed
/// with its chunk grid — ChunkedSnapshot::make_transfer_root), so a donor
/// only ever serves a transfer whose geometry it derived itself. Indices are
/// explicit so a resume re-requests exactly the missing set, from whichever
/// donor the fetcher chooses.
struct StateChunkRequestMsg {
  ReplicaId requester = 0;
  SeqNum seq = 0;
  Digest chunk_root{};  // transfer key, not the bare tree root
  std::vector<uint32_t> indices;
};

/// Donor -> fetcher: one chunk plus its Merkle membership proof under the
/// manifest's tree root. Verified chunk-by-chunk, so a corrupt donor is
/// detected on the first bad chunk and the fetch continues from the
/// remaining donors.
struct StateChunkMsg {
  ReplicaId donor = 0;
  SeqNum seq = 0;
  Digest chunk_root{};  // transfer key, matching the request
  uint32_t index = 0;
  uint32_t chunk_count = 0;
  Bytes data;
  merkle::BlockProof proof;
};

// ---------------------------------------------------------------------------
// PBFT baseline messages (all-to-all pattern)

struct PbftPrepareMsg {
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest h{};
  ReplicaId replica = 0;
};

struct PbftCommitMsg {
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest h{};
  ReplicaId replica = 0;
};

struct PbftCheckpointMsg {
  SeqNum seq = 0;
  Digest state_digest{};
  ReplicaId replica = 0;
  // Signature over (seq, state_digest) — accumulated into the checkpoint
  // certificate state transfer ships (CheckpointSigShare). Empty when the
  // cluster runs without checkpoint authentication.
  Bytes sig;
};

struct PbftPreparedCert {
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest h{};
  Block block;
};

struct PbftViewChangeMsg {
  ReplicaId sender = 0;
  ViewNum next_view = 0;
  SeqNum ls = 0;
  std::vector<PbftPreparedCert> prepared;
};

struct PbftNewViewMsg {
  ViewNum view = 0;
  std::vector<PbftViewChangeMsg> proofs;
};

// ---------------------------------------------------------------------------
// The message variant

using Message = std::variant<
    ClientRequestMsg, PrePrepareMsg, SignShareMsg, FullCommitProofMsg,
    PrepareMsg, CommitShareMsg, FullCommitProofSlowMsg, SignStateMsg,
    FullExecuteProofMsg, ExecuteAckMsg, ClientReplyMsg, ViewChangeMsg,
    NewViewMsg, GetBlockRequestMsg, GetBlockReplyMsg, StateTransferRequestMsg,
    StateManifestMsg, StateChunkRequestMsg, StateChunkMsg,
    PbftPrepareMsg, PbftCommitMsg, PbftCheckpointMsg,
    PbftViewChangeMsg, PbftNewViewMsg, ReconfigBlockMsg,
    TxVoteMsg, TxDecisionMsg, TxResultMsg>;

using MessagePtr = std::shared_ptr<const Message>;

template <typename T>
MessagePtr make_message(T msg) {
  return std::make_shared<const Message>(std::move(msg));
}

/// Canonical wire encoding (type tag + payload).
Bytes encode_message(const Message& msg);
/// Decodes a message; nullopt on malformed input.
std::optional<Message> decode_message(ByteSpan data);
/// Wire size of the encoded message (used for network transmission cost).
size_t message_wire_size(const Message& msg);
/// Short human-readable type name (logging, metrics).
const char* message_type_name(const Message& msg);

}  // namespace sbft
