// Checkpoint snapshot envelope.
//
// A checkpoint snapshot as shipped in WAL records and state-transfer chunks
// is more than the service state: the per-client reply cache rides along so a
// recovered replica suppresses duplicates of pre-checkpoint requests instead
// of re-executing them, the membership section lets recovering and joining
// replicas learn the roster from the snapshot itself
// (docs/reconfiguration.md), and the marker-executor section lets
// cross-shard lock/transaction state survive state transfer exactly like the
// reply cache does (docs/sharding.md). The envelope frames all parts and is
// *chunk-aligned* so the delta state-transfer path can diff consecutive
// checkpoints chunk-for-chunk (docs/state_transfer.md):
//
//   [8-byte magic "SBFTSNAP"][u16 version=4][u32 align]
//   [u64 service_len][u64 replies_len][u64 membership_len][u64 marker_len]
//   [zero pad to align]
//   [service_state, zero-padded to a multiple of align]
//   [replies][membership][marker]
//
// `align` equals the cluster's state-transfer chunk size, so the service
// serializer's page-aligned sections land exactly on chunk boundaries of the
// envelope: an unmutated section occupies byte-identical chunks across
// consecutive checkpoints. The mutable reply-cache, membership, and marker
// sections ride at the tail where they can only dirty the last chunks; an
// empty section still writes its zero length. Version 4 is the only one
// decoded: anything else — including bytes without the magic — is rejected,
// never guessed at.
//
// The service part is the component verified against the certificate's
// state_root; the reply cache and membership section are covered by the local
// WAL's crash-fault trust (and, over state transfer, by the same
// authenticated-channel/quorum assumptions the snapshot ride-along metadata
// already relies on — see README §durability and docs/reconfiguration.md).
#pragma once

#include "runtime/reply_cache.h"

namespace sbft::runtime {

/// A decoded envelope. The three byte sections are views into the buffer
/// given to decode_checkpoint_snapshot, valid only while that buffer lives;
/// the reply cache is decoded into its own storage.
struct CheckpointSnapshot {
  ByteSpan service_state;
  ReplyCache replies;
  ByteSpan membership;  // MembershipManager section; empty when unconfigured
  ByteSpan marker;      // IMarkerExecutor section; empty without a shard layer
};

/// `align` is the chunk-stability unit (pass the state-transfer chunk size);
/// <= 1 emits an unpadded envelope. `membership` is the encoded
/// MembershipManager section (empty when membership is unconfigured);
/// `marker` the IMarkerExecutor section (empty without a shard layer).
Bytes encode_checkpoint_snapshot(ByteSpan service_state, const ReplyCache& replies,
                                 uint32_t align = 1, ByteSpan membership = {},
                                 ByteSpan marker = {});
/// nullopt for anything but a well-formed version-4 envelope: missing
/// magic, unknown version, broken framing, or a corrupt reply-cache section.
/// The cache has no state-root covering it, and silently dropping it would
/// reintroduce the duplicate re-execution hazard the envelope exists to
/// close. Callers treat nullopt like a corrupt snapshot (abort recovery /
/// reject the transfer).
std::optional<CheckpointSnapshot> decode_checkpoint_snapshot(ByteSpan data);

}  // namespace sbft::runtime
