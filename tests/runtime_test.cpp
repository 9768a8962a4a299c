// Protocol-agnostic replica runtime: reply-cache persistence across
// checkpoints (including the non-idempotent EVM-transfer re-execution
// hazard), the checkpoint snapshot envelope, seed-bug regressions, the
// shared proposer's per-engine windows, and the cross-protocol
// crash→recover→rejoin scenario family — every simulated scenario here runs
// on both SBFT and the PBFT baseline through the identical Cluster API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "common/serde.h"
#include "crypto/sha256.h"
#include "evm/contracts.h"
#include "evm/evm_service.h"
#include "harness/cluster.h"
#include "harness/eth_workload.h"
#include "harness/workload.h"
#include "kv/kv_service.h"
#include "recovery/wal.h"
#include "runtime/checkpoint_manager.h"
#include "runtime/evidence_store.h"
#include "runtime/reply_cache.h"
#include "runtime/replica_runtime.h"
#include "runtime/snapshot.h"
#include "runtime/state_transfer.h"
#include "storage/ledger_storage.h"

// ---------------------------------------------------------------------------
// ReplyCache + snapshot envelope

namespace sbft::runtime {
namespace {

TEST(ReplyCache, StoresAndServesNewestPerClient) {
  ReplyCache cache;
  EXPECT_FALSE(cache.is_duplicate(7, 1));
  cache.store(7, 1, 10, 0, to_bytes("a"));
  cache.store(7, 3, 12, 1, to_bytes("b"));
  EXPECT_TRUE(cache.is_duplicate(7, 1));  // watermark covers older timestamps
  EXPECT_TRUE(cache.is_duplicate(7, 3));
  EXPECT_FALSE(cache.is_duplicate(7, 4));
  ASSERT_NE(cache.find(7), nullptr);
  EXPECT_EQ(cache.find(7)->value, to_bytes("b"));
  EXPECT_EQ(cache.find(7)->seq, 12u);
  // A stale store must never regress the watermark.
  cache.store(7, 2, 11, 0, to_bytes("stale"));
  EXPECT_EQ(cache.find(7)->timestamp, 3u);
  EXPECT_EQ(cache.find(7)->value, to_bytes("b"));
}

TEST(ReplyCache, EncodeDecodeRoundTrip) {
  ReplyCache cache;
  cache.store(4, 9, 3, 2, to_bytes("val-4"));
  cache.store(900, 1, 1, 0, Bytes{});
  auto decoded = ReplyCache::decode(as_span(cache.encode()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 2u);
  ASSERT_NE(decoded->find(4), nullptr);
  EXPECT_EQ(decoded->find(4)->timestamp, 9u);
  EXPECT_EQ(decoded->find(4)->index, 2u);
  EXPECT_EQ(decoded->find(4)->value, to_bytes("val-4"));
  ASSERT_NE(decoded->find(900), nullptr);
  EXPECT_TRUE(decoded->find(900)->value.empty());
}

TEST(ReplyCache, DecodeRejectsMalformed) {
  EXPECT_FALSE(ReplyCache::decode(as_span(to_bytes("garbage"))).has_value());
  ReplyCache cache;
  cache.store(1, 1, 1, 0, to_bytes("x"));
  Bytes encoded = cache.encode();
  encoded.pop_back();  // truncated value
  EXPECT_FALSE(ReplyCache::decode(as_span(encoded)).has_value());
}

TEST(ReplyCache, DecodeRejectsNonCanonicalClientIds) {
  // encode() writes each client once, in ascending order, as a u64. A
  // state-transfer donor's bytes are not covered by any state root, so a
  // cache written any other way must not decode.
  auto encode_ids = [](std::initializer_list<uint64_t> ids) {
    Writer w;
    w.u32(static_cast<uint32_t>(ids.size()));
    for (uint64_t id : ids) {
      w.u64(id);  // client
      w.u64(1);   // timestamp
      w.u64(1);   // seq
      w.u64(0);   // index
      w.bytes(as_span(to_bytes("v")));
    }
    return std::move(w).take();
  };
  ReplyCache canonical;
  canonical.store(3, 1, 1, 0, to_bytes("v"));
  canonical.store(UINT32_MAX, 1, 1, 0, to_bytes("v"));
  ASSERT_EQ(canonical.encode(), encode_ids({3, UINT32_MAX}));
  EXPECT_TRUE(ReplyCache::decode(as_span(encode_ids({3, UINT32_MAX}))).has_value());

  const uint64_t wide = (uint64_t{1} << 32) + 7;  // would narrow to client 7
  EXPECT_FALSE(ReplyCache::decode(as_span(encode_ids({wide}))).has_value());
  EXPECT_FALSE(ReplyCache::decode(as_span(encode_ids({3, wide}))).has_value());
  EXPECT_FALSE(ReplyCache::decode(as_span(encode_ids({7, 7}))).has_value());
  EXPECT_FALSE(ReplyCache::decode(as_span(encode_ids({3, 7, 7}))).has_value());
  EXPECT_FALSE(ReplyCache::decode(as_span(encode_ids({7, 3}))).has_value());
}

TEST(ReplyCache, SortedLayoutServesEveryClientAndEncodesAsBefore) {
  // Clients arrive out of order; the cache keeps one entry per client in
  // ascending client order.
  ReplyCache cache;
  for (ClientId c : {42u, 7u, 1000u, 3u, 99u, 15u, 512u, 1u}) {
    cache.store(c, /*timestamp=*/c + 10, /*seq=*/c % 13 + 1, /*index=*/c % 5,
                to_bytes("reply-" + std::to_string(c)));
  }
  cache.store(99, 200, 20, 4, to_bytes("newer-99"));  // replaces 99's entry
  cache.store(15, 3, 2, 0, to_bytes("older-15"));     // below 15's watermark
  ReplyCache other;
  other.store(7, 5, 1, 0, to_bytes("older-7"));         // ours is newer
  other.store(512, 600, 30, 1, to_bytes("newer-512"));  // theirs is newer
  other.store(64, 1, 31, 2, to_bytes("new-64"));        // new, in the middle
  other.store(2000, 2, 31, 3, Bytes{});                 // new, at the end
  other.store(0, 9, 32, 0, to_bytes("new-0"));          // new, at the front
  cache.absorb(std::move(other));

  const std::pair<ClientId, std::string> expected[] = {
      {0, "new-0"},       {1, "reply-1"},      {3, "reply-3"},
      {7, "reply-7"},     {15, "reply-15"},    {42, "reply-42"},
      {64, "new-64"},     {99, "newer-99"},    {512, "newer-512"},
      {1000, "reply-1000"}, {2000, ""},
  };
  ASSERT_EQ(cache.size(), std::size(expected));
  size_t i = 0;
  for (const auto& [client, entry] : cache.entries()) {
    EXPECT_EQ(client, expected[i].first) << "entry " << i;
    ++i;
  }
  for (const auto& [client, value] : expected) {
    const CachedReply* cached = cache.find(client);
    ASSERT_NE(cached, nullptr) << "client " << client;
    EXPECT_EQ(cached->value, to_bytes(value)) << "client " << client;
  }
  EXPECT_EQ(cache.find(99)->timestamp, 200u);
  EXPECT_EQ(cache.find(15)->timestamp, 25u);
  for (ClientId absent : {2u, 8u, 100u, 1999u, 2001u, UINT32_MAX}) {
    EXPECT_EQ(cache.find(absent), nullptr) << "client " << absent;
  }

  // Every checkpoint snapshot and state-transfer envelope carries these
  // bytes, so they are pinned.
  Bytes encoded = cache.encode();
  EXPECT_EQ(encoded.size(), 475u);
  EXPECT_EQ(to_hex(as_span(crypto::sha256(as_span(encoded)))),
            "b8170a83679f205eddf74ebf1968e51062f7d79cd4d9cf89ff06a2e3caf0f542");
}

TEST(EvidenceStore, PreparedHighestViewWinsProofsFirstWins) {
  EvidenceStore store;
  Digest d1 = crypto::sha256(as_span(to_bytes("one")));
  Digest d2 = crypto::sha256(as_span(to_bytes("two")));

  // Prepared: a newer view supersedes, an older view is rejected.
  EXPECT_TRUE(store.record_prepared(5, 2, d1, to_bytes("tau-v2")));
  EXPECT_FALSE(store.record_prepared(5, 1, d2, to_bytes("tau-v1")));
  EXPECT_TRUE(store.record_prepared(5, 4, d2, to_bytes("tau-v4")));
  const SlotEvidenceRecord* rec = store.find(5);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->prepared_view, 4u);
  EXPECT_TRUE(rec->prepared_digest == d2);
  EXPECT_EQ(rec->prepared_sig, to_bytes("tau-v4"));

  // Proofs: the first recorded one is final.
  EXPECT_TRUE(store.record_fast_proof(5, 4, d2, to_bytes("sigma")));
  EXPECT_FALSE(store.record_fast_proof(5, 9, d1, to_bytes("later")));
  EXPECT_TRUE(store.record_slow_proof(5, 4, d2, to_bytes("tau"), to_bytes("tt")));
  EXPECT_FALSE(store.record_slow_proof(5, 9, d1, to_bytes("x"), to_bytes("y")));
  rec = store.find(5);
  EXPECT_EQ(rec->fast_view, 4u);
  EXPECT_EQ(rec->fast_sig, to_bytes("sigma"));
  EXPECT_EQ(rec->slow_view, 4u);
  EXPECT_EQ(rec->slow_inner_sig, to_bytes("tau"));
  EXPECT_EQ(rec->slow_sig, to_bytes("tt"));
}

TEST(EvidenceStore, RangeIterationAndGc) {
  EvidenceStore store;
  Digest d = crypto::sha256(as_span(to_bytes("d")));
  for (SeqNum s = 1; s <= 10; ++s) store.record_prepared(s, 1, d, {});
  std::vector<SeqNum> seen;
  store.for_each_in(3, 7, [&](SeqNum s, const SlotEvidenceRecord&) {
    seen.push_back(s);
  });
  EXPECT_EQ(seen, (std::vector<SeqNum>{4, 5, 6, 7}));

  store.gc_through(8);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(8), nullptr);
  ASSERT_NE(store.find(9), nullptr);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(CheckpointSnapshot, EnvelopeRoundTrip) {
  ReplyCache cache;
  cache.store(11, 5, 2, 0, to_bytes("r"));
  Bytes envelope = encode_checkpoint_snapshot(as_span(to_bytes("svc-state")), cache);
  auto decoded = decode_checkpoint_snapshot(as_span(envelope));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(to_bytes(decoded->service_state), to_bytes("svc-state"));
  ASSERT_NE(decoded->replies.find(11), nullptr);
  EXPECT_EQ(decoded->replies.find(11)->timestamp, 5u);
}

TEST(CheckpointSnapshot, MembershipSectionRoundTrip) {
  ReplyCache cache;
  cache.store(11, 5, 2, 0, to_bytes("r"));
  Bytes membership = to_bytes("membership-section-bytes");
  Bytes envelope = encode_checkpoint_snapshot(as_span(to_bytes("svc-state")),
                                              cache, 1, as_span(membership));
  auto decoded = decode_checkpoint_snapshot(as_span(envelope));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(to_bytes(decoded->service_state), to_bytes("svc-state"));
  EXPECT_EQ(to_bytes(decoded->membership), membership);
  ASSERT_NE(decoded->replies.find(11), nullptr);
}

// ---------------------------------------------------------------------------
// Membership epochs (docs/reconfiguration.md)

std::vector<ReplicaInfo> genesis_members4() {
  return {{1, 0}, {2, 1}, {3, 2}, {4, 3}};
}

TEST(Membership, StagesAndActivatesAtCheckpointBoundary) {
  MembershipManager m;
  m.init_genesis(1, 0, genesis_members4());
  ASSERT_TRUE(m.configured());
  EXPECT_TRUE(m.is_member(2));
  EXPECT_FALSE(m.is_member(5));
  EXPECT_EQ(m.active().primary_of(0), 1u);
  EXPECT_EQ(m.active().slow_quorum(), 3u);

  ReconfigDelta delta;
  delta.adds = {{5, 10}, {6, 11}, {7, 12}};
  delta.new_f = 2;
  ASSERT_TRUE(m.stage(delta, /*exec_seq=*/5, /*interval=*/8));
  EXPECT_EQ(m.pending_activation(), 8u);
  EXPECT_FALSE(m.stage(delta, 6, 8));  // one reconfiguration in flight

  EXPECT_FALSE(m.activate_up_to(7));
  ASSERT_TRUE(m.activate_up_to(8));
  EXPECT_EQ(m.active().epoch, 1u);
  EXPECT_EQ(m.active().n(), 7u);
  EXPECT_EQ(m.active().f, 2u);
  EXPECT_EQ(m.active().slow_quorum(), 5u);
  EXPECT_TRUE(m.is_member(7));
  EXPECT_EQ(m.active().node_of(7), 12u);
  EXPECT_EQ(m.active().rank_of(5), 4);
  // Boundary slots belong to the epoch that ordered them.
  EXPECT_EQ(m.epoch_for_seq(8).epoch, 0u);
  EXPECT_EQ(m.epoch_for_seq(9).epoch, 1u);

  // Removal epoch: drop the three new members again, back to f=1.
  ReconfigDelta removal;
  removal.removes = {5, 6, 7};
  removal.new_f = 1;
  ASSERT_TRUE(m.stage(removal, 17, 8));
  EXPECT_EQ(m.pending_activation(), 24u);
  ASSERT_TRUE(m.activate_up_to(24));
  EXPECT_EQ(m.active().epoch, 2u);
  EXPECT_EQ(m.active().n(), 4u);
  EXPECT_FALSE(m.is_member(6));
  EXPECT_EQ(m.epoch_for_seq(20).epoch, 1u);
}

TEST(Membership, RejectsInconsistentDeltas) {
  MembershipManager m;
  m.init_genesis(1, 0, genesis_members4());

  ReconfigDelta bad;
  bad.removes = {9};  // not a member
  bad.new_f = 1;
  EXPECT_FALSE(m.stage(bad, 5, 8));

  bad = {};
  bad.adds = {{2, 9}};  // id already a member
  bad.new_f = 1;
  EXPECT_FALSE(m.stage(bad, 5, 8));

  bad = {};
  bad.adds = {{5, 1}};  // node already occupied
  bad.new_f = 1;
  EXPECT_FALSE(m.stage(bad, 5, 8));

  bad = {};
  bad.adds = {{5, 10}};  // 5 replicas can satisfy no 3f+2c+1 with f>=1
  bad.new_f = 1;
  EXPECT_FALSE(m.stage(bad, 5, 8));

  bad = {};
  bad.adds = {{5, 10}, {6, 11}, {7, 12}};
  bad.new_f = 2;
  EXPECT_FALSE(m.stage(bad, 5, /*interval=*/0));  // checkpoints disabled
  EXPECT_TRUE(m.stage(bad, 5, 8));
}

TEST(Membership, EncodeRestoreMovesForwardOnly) {
  MembershipManager donor;
  donor.init_genesis(1, 0, genesis_members4());
  ReconfigDelta delta;
  delta.adds = {{5, 10}, {6, 11}, {7, 12}};
  delta.new_f = 2;
  ASSERT_TRUE(donor.stage(delta, 5, 8));

  // A fetcher at the same epoch adopts the staged reconfiguration.
  MembershipManager fetcher;
  fetcher.init_genesis(1, 0, genesis_members4());
  ASSERT_TRUE(fetcher.restore(as_span(donor.encode())));
  EXPECT_EQ(fetcher.pending_activation(), 8u);
  ASSERT_TRUE(fetcher.activate_up_to(8));
  EXPECT_EQ(fetcher.active().epoch, 1u);

  // A joiner bootstrapped with the old roster learns the new epoch whole.
  ASSERT_TRUE(donor.activate_up_to(8));
  MembershipManager joiner;
  joiner.init_genesis(1, 0, genesis_members4());
  ASSERT_TRUE(joiner.restore(as_span(donor.encode())));
  EXPECT_EQ(joiner.active().epoch, 1u);
  EXPECT_TRUE(joiner.active().contains(7));

  // Stale sections never regress an advanced manager.
  MembershipManager stale;
  stale.init_genesis(1, 0, genesis_members4());
  EXPECT_FALSE(joiner.restore(as_span(stale.encode())));
  EXPECT_EQ(joiner.active().epoch, 1u);

  // Malformed sections are ignored.
  EXPECT_FALSE(joiner.restore(as_span(to_bytes("garbage"))));
}

TEST(CheckpointSnapshot, RejectsBareAndRetiredFormats) {
  // Only version-4 envelopes decode. Bytes without the magic are not
  // guessed to be a raw service snapshot, and the retired flat (v1),
  // membership-less aligned (v2) and marker-less (v3) layouts are refused
  // even when well formed.
  Bytes bare = to_bytes("raw-service-snapshot");
  EXPECT_FALSE(decode_checkpoint_snapshot(as_span(bare)).has_value());

  Bytes service = to_bytes("svc");
  Bytes replies = ReplyCache{}.encode();
  auto header = [](uint16_t version) {
    Writer w;
    w.raw(as_span(to_bytes("SBFTSNAP")));
    w.u16(version);
    return w;
  };
  Writer v1 = header(1);
  v1.bytes(as_span(service));
  v1.bytes(as_span(replies));
  EXPECT_FALSE(decode_checkpoint_snapshot(as_span(v1.data())).has_value());

  Writer v2 = header(2);
  v2.u32(1);  // align
  v2.u64(service.size());
  v2.u64(replies.size());
  v2.raw(as_span(service));
  v2.raw(as_span(replies));
  EXPECT_FALSE(decode_checkpoint_snapshot(as_span(v2.data())).has_value());

  Writer v3 = header(3);
  v3.u32(1);  // align
  v3.u64(service.size());
  v3.u64(replies.size());
  v3.u64(0);  // membership
  v3.raw(as_span(service));
  v3.raw(as_span(replies));
  EXPECT_FALSE(decode_checkpoint_snapshot(as_span(v3.data())).has_value());

  // The same parts in the current layout decode.
  Bytes envelope = encode_checkpoint_snapshot(as_span(service), ReplyCache{});
  auto current = decode_checkpoint_snapshot(as_span(envelope));
  ASSERT_TRUE(current.has_value());
  EXPECT_EQ(to_bytes(current->service_state), service);
}

TEST(CheckpointSnapshot, CorruptCacheSectionRejectsEnvelope) {
  // The reply cache has no state-root covering it; an envelope whose cache
  // section is corrupt must be rejected outright — decoding it as "empty
  // cache" would silently reintroduce the duplicate re-execution hazard.
  ReplyCache cache;
  cache.store(11, 5, 2, 0, to_bytes("r"));
  Bytes envelope = encode_checkpoint_snapshot(as_span(to_bytes("svc")), cache);
  envelope.pop_back();  // truncate inside the cache section
  EXPECT_FALSE(decode_checkpoint_snapshot(as_span(envelope)).has_value());
}

// ---------------------------------------------------------------------------
// Chunked state transfer: ChunkedSnapshot + StateTransferManager unit level
// (the protocol spec these implement is docs/state_transfer.md)

StateChunkMsg chunk_msg_of(const ChunkedSnapshot& snap, ByteSpan envelope,
                           ReplicaId donor, SeqNum seq, uint32_t index) {
  StateChunkMsg m;
  m.donor = donor;
  m.seq = seq;
  m.chunk_root = snap.transfer_root();
  m.index = index;
  m.chunk_count = snap.chunk_count();
  m.data = to_bytes(snap.chunk(envelope, index));
  m.proof = snap.proof(index);
  return m;
}

StateManifestMsg manifest_of(const ChunkedSnapshot& snap, ReplicaId donor,
                             SeqNum seq) {
  StateManifestMsg m;
  m.donor = donor;
  m.seq = seq;
  m.cert.seq = seq;
  m.chunk_root = snap.chunk_root();
  m.chunk_count = snap.chunk_count();
  m.chunk_size = snap.chunk_size();
  m.total_bytes = snap.total_bytes();
  return m;
}

/// Feeds a manifest with no local base checkpoint (no delta seeding) — the
/// plain chunked-path behaviour the tests below exercise.
bool feed_manifest(StateTransferManager& mgr, const StateManifestMsg& m,
                   SeqNum last_executed) {
  CheckpointManager cp(16);
  RuntimeStats stats;
  return mgr.on_manifest(m, last_executed, cp, stats);
}

Bytes patterned_envelope(size_t size) {
  Bytes envelope(size);
  for (size_t i = 0; i < size; ++i) {
    envelope[i] = static_cast<uint8_t>(i * 131 + (i >> 8));
  }
  return envelope;
}

TEST(ChunkedSnapshotTest, SplitsProvesAndVerifies) {
  Bytes envelope = patterned_envelope(10'000);
  ChunkedSnapshot snap(as_span(envelope), 1024);
  EXPECT_EQ(snap.chunk_count(), 10u);  // 9 full chunks + a 784-byte tail
  EXPECT_EQ(snap.total_bytes(), 10'000u);
  EXPECT_EQ(snap.chunk(as_span(envelope), 9).size(), 10'000u - 9 * 1024u);

  Bytes reassembled;
  for (uint32_t i = 0; i < snap.chunk_count(); ++i) {
    ByteSpan c = snap.chunk(as_span(envelope), i);
    reassembled.insert(reassembled.end(), c.begin(), c.end());
    EXPECT_TRUE(merkle::BlockMerkleTree::verify(
        snap.chunk_root(), ChunkedSnapshot::chunk_leaf(c), snap.proof(i)));
  }
  EXPECT_EQ(reassembled, envelope);

  // A bit flip in the payload must not verify under the honest proof.
  Bytes tampered = to_bytes(snap.chunk(as_span(envelope), 3));
  tampered[0] ^= 0x01;
  EXPECT_FALSE(merkle::BlockMerkleTree::verify(
      snap.chunk_root(), ChunkedSnapshot::chunk_leaf(as_span(tampered)),
      snap.proof(3)));
}

TEST(StateTransferManagerTest, FansOutResumesAndReassembles) {
  constexpr uint32_t kCap = StateTransferManager::kMaxChunksPerRequest;
  Bytes envelope = patterned_envelope(40 * 1024);
  ChunkedSnapshot snap(as_span(envelope), 1024);  // 40 chunks > 2 donors x cap
  StateTransferManager mgr(1024);
  RuntimeStats stats;

  mgr.open_round();
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, /*donor=*/1, /*seq=*/16), 0));
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, /*donor=*/2, /*seq=*/16), 0));
  EXPECT_EQ(mgr.donor_count(), 2u);

  // First plan: the per-request cap binds, 2 donors x cap outstanding chunks.
  auto plan = mgr.plan_requests(/*self=*/4);
  ASSERT_EQ(plan.size(), 2u);
  size_t planned = 0;
  for (const auto& [donor, req] : plan) {
    EXPECT_EQ(req.indices.size(), kCap);
    planned += req.indices.size();
  }
  EXPECT_EQ(planned, 2 * kCap);

  // Donor 1 answers its batch; donor 2 dies silently.
  using Verdict = StateTransferManager::ChunkVerdict;
  for (const auto& [donor, req] : plan) {
    if (donor != 1) continue;
    for (uint32_t i : req.indices) {
      EXPECT_EQ(mgr.on_chunk(chunk_msg_of(snap, as_span(envelope), donor, 16, i), stats),
                Verdict::kStored);
    }
  }
  uint32_t received_before_retry = mgr.chunks_received();
  EXPECT_GT(received_before_retry, 0u);

  // Retry tick: partial data in hand => this is a *resume*, and nothing
  // already received is thrown away.
  EXPECT_TRUE(mgr.on_retry(stats));
  EXPECT_EQ(stats.state_transfer_resumes, 1u);
  EXPECT_EQ(mgr.chunks_received(), received_before_retry);

  // Drain the remaining chunks (donor 1 keeps serving across plans).
  for (int guard = 0; guard < 32; ++guard) {
    auto next = mgr.plan_requests(4);
    if (next.empty()) break;
    bool done = false;
    for (const auto& [donor, req] : next) {
      for (uint32_t i : req.indices) {
        Verdict v = mgr.on_chunk(chunk_msg_of(snap, as_span(envelope), donor, 16, i), stats);
        done = done || v == Verdict::kCompleted;
      }
    }
    if (done) break;
  }
  ASSERT_EQ(mgr.chunks_received(), snap.chunk_count());
  // Each chunk fetched exactly once — the resume never re-fetched data.
  EXPECT_EQ(stats.state_transfer_chunks_fetched, snap.chunk_count());
  EXPECT_EQ(stats.state_transfer_bytes_transferred, envelope.size());
  EXPECT_EQ(mgr.take_envelope(), envelope);
}

TEST(StateTransferManagerTest, InvalidChunkExcludesDonorForGood) {
  Bytes envelope = patterned_envelope(4 * 1024);
  ChunkedSnapshot snap(as_span(envelope), 1024);
  StateTransferManager mgr(1024);
  RuntimeStats stats;

  mgr.open_round();
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, 1, 16), 0));
  auto plan = mgr.plan_requests(4);
  ASSERT_EQ(plan.size(), 1u);

  StateChunkMsg bad = chunk_msg_of(snap, as_span(envelope), 1, 16, plan[0].second.indices[0]);
  bad.data[0] ^= 0xff;  // bit flip; the honest proof no longer matches
  EXPECT_EQ(mgr.on_chunk(bad, stats),
            StateTransferManager::ChunkVerdict::kInvalid);
  EXPECT_EQ(stats.state_transfer_invalid_chunks, 1u);
  EXPECT_EQ(mgr.chunks_received(), 0u);
  EXPECT_EQ(mgr.donor_count(), 0u);       // excluded
  EXPECT_TRUE(mgr.plan_requests(4).empty());  // nobody left to ask

  // An excluded donor's manifests are ignored; an honest donor re-enables
  // the fetch and its indices re-plan immediately.
  EXPECT_FALSE(feed_manifest(mgr, manifest_of(snap, 1, 16), 0));
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, 2, 16), 0));
  auto retry = mgr.plan_requests(4);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].first, 2u);
  EXPECT_EQ(retry[0].second.indices.size(), snap.chunk_count());
}

TEST(StateTransferManagerTest, ExcludeDonorRePlansItsOutstandingChunks) {
  Bytes envelope = patterned_envelope(4 * 1024);
  ChunkedSnapshot snap(as_span(envelope), 1024);
  StateTransferManager mgr(1024);
  mgr.open_round();
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, 1, 16), 0));
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, 2, 16), 0));
  ASSERT_FALSE(mgr.plan_requests(4).empty());
  // Protocol-layer exclusion (e.g. a failed PBFT checkpoint certificate):
  // donor 2 is dropped and its outstanding indices re-plan onto donor 1.
  mgr.exclude_donor(2);
  EXPECT_TRUE(mgr.donor_excluded(2));
  EXPECT_EQ(mgr.donor_count(), 1u);
  auto plan = mgr.plan_requests(4);
  ASSERT_FALSE(plan.empty());
  for (const auto& [donor, req] : plan) EXPECT_EQ(donor, 1u);
  EXPECT_FALSE(feed_manifest(mgr, manifest_of(snap, 2, 16), 0));  // stays out
}

TEST(StateTransferManagerTest, BogusRootManifestCannotWedgeTheFetch) {
  // A Byzantine donor holding the genuine certificate can advertise a
  // fabricated chunk root (the certificate does not cover the root). Honest
  // same-seq manifests carry the true root and must eventually re-target:
  // immediately when the liar serves an invalid chunk, or once the liar has
  // struck out silently — never "first manifest wins" forever.
  Bytes envelope = patterned_envelope(4 * 1024);
  ChunkedSnapshot honest(as_span(envelope), 1024);
  RuntimeStats stats;

  // Liar serves an invalid chunk: target dropped at once, honest re-targets.
  {
    StateTransferManager mgr(1024);
    mgr.open_round();
    StateManifestMsg bogus = manifest_of(honest, /*donor=*/1, /*seq=*/16);
    bogus.chunk_root[0] ^= 0xff;
    ASSERT_TRUE(feed_manifest(mgr, bogus, 0));
    auto plan = mgr.plan_requests(4);
    ASSERT_FALSE(plan.empty());
    StateChunkMsg garbage =
        chunk_msg_of(honest, as_span(envelope), 1, 16, plan[0].second.indices[0]);
    garbage.chunk_root = plan[0].second.chunk_root;  // matches target, fails proof
    EXPECT_EQ(mgr.on_chunk(garbage, stats),
              StateTransferManager::ChunkVerdict::kInvalid);
    EXPECT_FALSE(mgr.has_target());  // suspect root dropped with its author
    ASSERT_TRUE(feed_manifest(mgr, manifest_of(honest, /*donor=*/2, 16), 0));
    EXPECT_EQ(mgr.target_cert().seq, 16u);
  }

  // Liar goes silent instead: after it strikes out, the honest root wins.
  // Faithful to the engine loop: plan_requests runs after *every* tick (its
  // forgiveness branch clears strikes_ for planning) and the honest manifest
  // arrives between ticks — the struck-out evidence must survive all that.
  {
    StateTransferManager mgr(1024);
    mgr.open_round();
    StateManifestMsg bogus = manifest_of(honest, /*donor=*/1, /*seq=*/16);
    bogus.chunk_root[0] ^= 0xff;
    ASSERT_TRUE(feed_manifest(mgr, bogus, 0));
    StateManifestMsg truth = manifest_of(honest, /*donor=*/2, /*seq=*/16);
    EXPECT_FALSE(feed_manifest(mgr, truth, 0));  // liar's donors not yet dead
    ASSERT_FALSE(mgr.plan_requests(4).empty());
    mgr.on_retry_tick(0, true, stats);  // strike 1
    ASSERT_FALSE(mgr.plan_requests(4).empty());
    auto tick = mgr.on_retry_tick(0, true, stats);  // strike 2: struck out
    EXPECT_TRUE(tick.probe);
    ASSERT_FALSE(mgr.plan_requests(4).empty());  // forgiveness retries the liar...
    ASSERT_TRUE(feed_manifest(mgr, truth, 0));      // ...but cannot mask its record
    EXPECT_TRUE(mgr.has_target());
    auto plan = mgr.plan_requests(4);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan[0].first, 2u);  // fetching the honest root from donor 2
  }
}

TEST(StateTransferManagerTest, GeometryLieNamesADifferentTransfer) {
  // The wedge variant the transfer key exists for: a manifest reusing the
  // HONEST tree root but shrinking chunk_size passes the manifest geometry
  // sanity check, yet must name a *different* transfer — honest donors then
  // ignore its requests (key mismatch) instead of serving chunks that would
  // violate the lied size bound and get the donors excluded.
  Bytes envelope = patterned_envelope(10 * 1024);
  ChunkedSnapshot snap(as_span(envelope), 1024);  // 10 chunks of 1024
  RuntimeStats stats;
  StateTransferManager mgr(1024);
  mgr.open_round();
  StateManifestMsg shrunk = manifest_of(snap, /*donor=*/1, /*seq=*/16);
  shrunk.chunk_size = 512;  // honest root, lying grid
  shrunk.chunk_count = 20;  // passes ceil(10240 / 512) == 20
  ASSERT_TRUE(feed_manifest(mgr, shrunk, 0));
  auto plan = mgr.plan_requests(4);
  ASSERT_FALSE(plan.empty());
  EXPECT_FALSE(plan[0].second.chunk_root == snap.transfer_root());
  // 20 lied chunks, one donor: the per-request cap bounds the plan.
  EXPECT_EQ(plan[0].second.indices.size(),
            StateTransferManager::kMaxChunksPerRequest);

  // Nobody serves the liar's transfer; once it strikes out (the engine
  // re-plans after every tick, so its outstanding requests keep going
  // unanswered), the honest same-seq manifest re-targets and requests carry
  // the honest key.
  mgr.on_retry_tick(0, true, stats);
  ASSERT_FALSE(mgr.plan_requests(4).empty());
  mgr.on_retry_tick(0, true, stats);
  ASSERT_FALSE(mgr.plan_requests(4).empty());  // engine plans before manifests land
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, /*donor=*/2, 16), 0));
  auto honest_plan = mgr.plan_requests(4);
  ASSERT_FALSE(honest_plan.empty());
  EXPECT_TRUE(honest_plan[0].second.chunk_root == snap.transfer_root());
  EXPECT_EQ(honest_plan[0].first, 2u);
}

TEST(StateTransferManagerTest, RetryTickReprobesWhenEveryDonorStruckOut) {
  // Livelock guard: if the only registered donor dies, the strike counter
  // alone keeps retrying it forever — the tick must re-raise the probe so
  // replicas that acquired the checkpoint since then can register.
  Bytes envelope = patterned_envelope(4 * 1024);
  ChunkedSnapshot snap(as_span(envelope), 1024);
  StateTransferManager mgr(1024);
  RuntimeStats stats;

  mgr.open_round();
  auto first = mgr.on_retry_tick(/*last_executed=*/0, /*behind=*/true, stats);
  EXPECT_FALSE(first.stop);
  EXPECT_TRUE(first.probe);  // no manifest adopted yet

  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, 1, 16), 0));
  ASSERT_FALSE(mgr.plan_requests(4).empty());  // donor 1 has outstanding chunks
  auto tick1 = mgr.on_retry_tick(0, true, stats);
  EXPECT_FALSE(tick1.stop);
  EXPECT_FALSE(tick1.probe);  // one strike: donor may just be slow
  ASSERT_FALSE(mgr.plan_requests(4).empty());
  auto tick2 = mgr.on_retry_tick(0, true, stats);
  EXPECT_FALSE(tick2.stop);
  EXPECT_TRUE(tick2.probe);  // struck out: only a fresh probe finds donors

  // The fetch becomes moot once the replica caught up past the target.
  auto done = mgr.on_retry_tick(/*last_executed=*/16, /*behind=*/false, stats);
  EXPECT_TRUE(done.stop);
  EXPECT_FALSE(mgr.active());
}

TEST(StateTransferManagerTest, AdoptResultDistinguishesStaleFromLyingManifest) {
  Bytes envelope = patterned_envelope(1024);
  ChunkedSnapshot snap(as_span(envelope), 1024);
  RuntimeStats stats;

  // Lying manifest: adoption failed and the target is still ahead of the
  // replica — the sender is excluded and the caller must re-probe.
  StateTransferManager mgr(1024);
  mgr.open_round();
  ASSERT_TRUE(feed_manifest(mgr, manifest_of(snap, 1, 16), 0));
  EXPECT_TRUE(mgr.on_adopt_result(/*adopted=*/false, /*last_executed=*/0));
  EXPECT_TRUE(mgr.active());                 // fetch restarts
  EXPECT_FALSE(mgr.has_target());            // against a fresh manifest
  EXPECT_FALSE(feed_manifest(mgr, manifest_of(snap, 1, 16), 0));  // liar excluded

  // Stale target: adoption failed only because the replica caught up past
  // the checkpoint through the ordering protocol — nothing went wrong.
  StateTransferManager stale(1024);
  stale.open_round();
  ASSERT_TRUE(feed_manifest(stale, manifest_of(snap, 2, 16), 0));
  EXPECT_FALSE(stale.on_adopt_result(/*adopted=*/false, /*last_executed=*/16));
  EXPECT_FALSE(stale.active());

  // Success clears everything.
  StateTransferManager ok(1024);
  ok.open_round();
  ASSERT_TRUE(feed_manifest(ok, manifest_of(snap, 3, 16), 0));
  EXPECT_FALSE(ok.on_adopt_result(/*adopted=*/true, /*last_executed=*/16));
  EXPECT_FALSE(ok.active());
}

// ---------------------------------------------------------------------------
// Chunk-stable snapshot encoding (the layout delta transfer relies on)

/// Chunks `base`/`target` and counts how many of `target`'s chunks carry
/// content no chunk of `base` carries — exactly the donor's delta diff.
uint32_t differing_chunks(const Bytes& base, const Bytes& target,
                          uint32_t chunk_size) {
  ChunkedSnapshot b(as_span(base), chunk_size);
  ChunkedSnapshot t(as_span(target), chunk_size);
  std::set<Digest> base_hashes(b.leaf_hashes().begin(), b.leaf_hashes().end());
  uint32_t differing = 0;
  for (const Digest& leaf : t.leaf_hashes()) {
    if (!base_hashes.count(leaf)) ++differing;
  }
  return differing;
}

Bytes kv_key(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%06u", i);
  return to_bytes(buf);
}

TEST(ChunkStableSnapshot, SmallMutationPerturbsFewChunks) {
  // 2000 keys with the paged layout: overwriting a handful of values must
  // dirty only their sections' chunks, not shift every byte after them (the
  // flat layout re-wrote the whole tail on any size change).
  kv::KvService a;
  a.set_snapshot_chunk_hint(1024);
  for (uint32_t i = 0; i < 2000; ++i) {
    a.put(as_span(kv_key(i)), as_span(Bytes(48, static_cast<uint8_t>(i))));
  }
  Bytes before = a.snapshot();
  for (uint32_t i : {17u, 444u, 902u, 1500u, 1999u}) {
    a.put(as_span(kv_key(i)), as_span(Bytes(48, 0xAB)));
  }
  Bytes after = a.snapshot();
  ReplyCache replies;
  Bytes env_before = encode_checkpoint_snapshot(as_span(before), replies, 1024);
  Bytes env_after = encode_checkpoint_snapshot(as_span(after), replies, 1024);
  uint32_t total = ChunkedSnapshot(as_span(env_after), 1024).chunk_count();
  uint32_t differing = differing_chunks(env_before, env_after, 1024);
  EXPECT_GT(differing, 0u);
  EXPECT_GE(total, 100u);
  EXPECT_LE(differing, 30u) << "a 5-key mutation dirtied " << differing << "/"
                            << total << " chunks — layout is not chunk-stable";

  // An *insertion* must stay local too: sections after it may shift by whole
  // pages, which the content-addressed diff absorbs.
  a.put(as_span(to_bytes("key-000500-new")), as_span(Bytes(48, 0xCD)));
  Bytes env_ins = encode_checkpoint_snapshot(as_span(a.snapshot()), replies, 1024);
  EXPECT_LE(differing_chunks(env_after, env_ins, 1024), 8u);
}

TEST(ChunkStableSnapshot, PagedRoundTripAndLegacyRestore) {
  kv::KvService a;
  a.set_snapshot_chunk_hint(1024);
  for (uint32_t i = 0; i < 300; ++i) {
    a.put(as_span(kv_key(i)), as_span(Bytes(40, static_cast<uint8_t>(i * 7))));
  }
  Bytes paged = a.snapshot();
  EXPECT_EQ(paged.size() % 1024, 0u);  // sections padded to the page grid

  kv::KvService b;
  ASSERT_TRUE(b.restore(as_span(paged)));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.size(), 300u);

  // Input without the paged magic is rejected: the pre-paged flat format
  // (u64 count + pairs), and eight zero bytes (an empty store in that format).
  Writer w;
  w.u64(2);
  w.bytes(as_span(to_bytes("k1")));
  w.bytes(as_span(to_bytes("v1")));
  w.bytes(as_span(to_bytes("k2")));
  w.bytes(as_span(to_bytes("v2")));
  kv::KvService legacy;
  EXPECT_FALSE(legacy.restore(as_span(w.data())));
  EXPECT_FALSE(legacy.restore(as_span(Bytes(8, 0))));

  // Truncated paged input must be rejected.
  Bytes truncated(paged.begin(), paged.begin() + paged.size() - 512);
  kv::KvService c;
  EXPECT_FALSE(c.restore(as_span(truncated)));
}

TEST(CheckpointSnapshot, AlignedEnvelopeRoundTrip) {
  ReplyCache cache;
  cache.store(11, 5, 2, 0, to_bytes("r"));
  Bytes state(5000, 0x5a);  // >= 4 chunks of 512: the aligned layout engages
  Bytes envelope = encode_checkpoint_snapshot(as_span(state), cache, 512);
  EXPECT_EQ((envelope.size() - cache.encode().size()) % 512, 0u);
  auto decoded = decode_checkpoint_snapshot(as_span(envelope));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(to_bytes(decoded->service_state), state);
  ASSERT_NE(decoded->replies.find(11), nullptr);

  // Truncation anywhere must reject the envelope, exactly like version 1.
  Bytes cut(envelope.begin(), envelope.end() - 1);
  EXPECT_FALSE(decode_checkpoint_snapshot(as_span(cut)).has_value());

  // A small state skips the padding (compact layout) but round-trips the same.
  Bytes tiny = encode_checkpoint_snapshot(as_span(to_bytes("svc")), cache, 65536);
  EXPECT_LT(tiny.size(), 1000u);
  auto tiny_decoded = decode_checkpoint_snapshot(as_span(tiny));
  ASSERT_TRUE(tiny_decoded.has_value());
  EXPECT_EQ(to_bytes(tiny_decoded->service_state), to_bytes("svc"));
}

/// A KvService of `entries` 16-byte keys and 64-byte values (88 payload
/// bytes each) at a 64 KiB chunk hint.
kv::KvService golden_store(uint32_t entries) {
  kv::KvService kv;
  kv.set_snapshot_chunk_hint(64 * 1024);
  for (uint32_t i = 0; i < entries; ++i) {
    Bytes key(16);
    Bytes value(64);
    uint64_t mix = uint64_t{i} * 0x9E3779B97F4A7C15ull;
    for (size_t b = 0; b < 8; ++b) {
      key[b] = static_cast<uint8_t>(uint64_t{i} >> (8 * b));
      key[8 + b] = static_cast<uint8_t>(mix >> (8 * b));
    }
    for (size_t b = 0; b < value.size(); ++b) {
      value[b] = static_cast<uint8_t>(i * 7 + b);
    }
    kv.put(as_span(key), as_span(value));
  }
  return kv;
}

TEST(CheckpointSnapshot, EnvelopesKeepTheirBytesAndHoldNoSpareCapacity) {
  // Lengths and SHA-256s recorded from the encoders that built each section
  // in its own growing Writer. 2,979 entries are the fewest that pass the
  // store's 4-page padding gate at 64 KiB; at 2,978 the store is compact but
  // its envelope, over 4 chunks, is aligned; 100 entries are compact twice.
  struct Golden {
    uint32_t entries;
    size_t snapshot_size;
    const char* snapshot_sha;
    size_t envelope_size;
    const char* envelope_sha;
  };
  const Golden cases[] = {
      {2979, 458752, "4bf4e456293b476b60f7401d88b7c9907b3f33ed684ff7aac5bc09e1044550d8",
       524390, "6ff48f5b049bc7e95af4f4a5b8ec98c8d093646b801a1ee2dac9c084734763b7"},
      {2978, 262196, "98929e41d92230d02fa165cecdc735d431fe8f34e01ebbd0b262bbb869f00004",
       393318, "c2a345e89a8021ae37cbdac06fddb884cb759ab2a064c3681ef7c3b4c9959c39"},
      {100, 8832, "4ead196b0af41be51976e8ce1c2e6c47722184c4caebcafc51f340ae16e00a9b",
       8980, "6cb0d7e86834286aa1789ca64d24db3d5864de0eff66a183e40ddf3c0b587806"},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.entries);
    Bytes snapshot = golden_store(g.entries).snapshot();
    EXPECT_EQ(snapshot.size(), g.snapshot_size);
    EXPECT_EQ(to_hex(as_span(crypto::sha256(as_span(snapshot)))), g.snapshot_sha);
    EXPECT_EQ(snapshot.capacity(), snapshot.size());

    ReplyCache replies;
    replies.store(11, 3, 40, 0, to_bytes("OK"));
    replies.store(12, 9, 41, 2, to_bytes("value-12"));
    Bytes envelope = encode_checkpoint_snapshot(
        as_span(snapshot), replies, 64 * 1024, as_span(to_bytes("membership")),
        as_span(to_bytes("marker")));
    EXPECT_EQ(envelope.size(), g.envelope_size);
    EXPECT_EQ(to_hex(as_span(crypto::sha256(as_span(envelope)))), g.envelope_sha);
    EXPECT_EQ(envelope.capacity(), envelope.size());
  }
}

// ---------------------------------------------------------------------------
// Delta state transfer (unit level)

ExecCertificate cert_at(SeqNum seq) {
  ExecCertificate cert;
  cert.seq = seq;
  return cert;
}

TEST(StateTransferManagerTest, DeltaManifestSeedsUnchangedChunks) {
  // Base: 8 chunks. Target: chunks 2 and 5 mutated, one chunk appended. A
  // briefly-behind fetcher advertising the base must seed the 6 shared chunks
  // locally and fetch only the 3 that differ.
  Bytes base_env = patterned_envelope(8 * 1024);
  Bytes target_env = base_env;
  std::fill(target_env.begin() + 2 * 1024, target_env.begin() + 3 * 1024, 0xAB);
  std::fill(target_env.begin() + 5 * 1024, target_env.begin() + 6 * 1024, 0xCD);
  target_env.insert(target_env.end(), 1024, 0xEE);  // 9 chunks now

  // Donor: sealed the base checkpoint, then the target (retiring the base's
  // chunk hashes into its delta history).
  StateTransferManager donor(1024);
  CheckpointManager donor_cp(16);
  donor_cp.adopt(cert_at(16), std::make_shared<const Bytes>(base_env));
  EXPECT_TRUE(donor.note_checkpoint(donor_cp));
  donor_cp.adopt(cert_at(32), std::make_shared<const Bytes>(target_env));
  EXPECT_TRUE(donor.note_checkpoint(donor_cp));

  // Fetcher: retains the base as its shippable pair.
  StateTransferManager fetcher(1024);
  CheckpointManager fetcher_cp(16);
  fetcher_cp.adopt(cert_at(16), std::make_shared<const Bytes>(base_env));
  StateTransferRequestMsg probe = fetcher.make_probe(fetcher_cp, /*self=*/4,
                                                     /*last_executed=*/16);
  EXPECT_EQ(probe.base_seq, 16u);
  EXPECT_FALSE(fetcher.active());  // building the probe opens no round
  fetcher.open_round();

  auto manifest = donor.make_manifest(donor_cp, probe, /*donor=*/1);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->base_seq, 16u);
  EXPECT_EQ(manifest->base_map.size(), 6u);

  RuntimeStats stats;
  ASSERT_TRUE(fetcher.on_manifest(*manifest, 16, fetcher_cp, stats));
  EXPECT_EQ(stats.delta_chunks_skipped, 6u);
  EXPECT_EQ(stats.delta_bytes_saved, 6u * 1024u);
  EXPECT_FALSE(fetcher.fetch_complete());

  // Only the differing chunks go on the wire.
  auto plan = fetcher.plan_requests(4);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].second.indices, (std::vector<uint32_t>{2, 5, 8}));
  RuntimeStats donor_stats;
  using Verdict = StateTransferManager::ChunkVerdict;
  Verdict last = Verdict::kRejected;
  for (StateChunkMsg& c :
       donor.make_chunks(donor_cp, plan[0].second, 1, donor_stats)) {
    last = fetcher.on_chunk(c, stats);
  }
  EXPECT_EQ(last, Verdict::kCompleted);
  EXPECT_EQ(stats.state_transfer_chunks_fetched, 3u);
  EXPECT_EQ(stats.state_transfer_bytes_transferred, 3u * 1024u);
  EXPECT_EQ(fetcher.take_envelope(), target_env);
}

TEST(StateTransferManagerTest, LateDeltaManifestSeedsMidFetch) {
  // The adopted manifest may come from a donor without the base (full); a
  // later same-transfer manifest carrying the delta section must still seed
  // the missing unchanged chunks — delta savings must not depend on message
  // arrival order.
  Bytes base_env = patterned_envelope(8 * 1024);
  Bytes target_env = base_env;
  std::fill(target_env.begin() + 2 * 1024, target_env.begin() + 3 * 1024, 0xAB);

  StateTransferManager donor(1024);
  CheckpointManager donor_cp(16);
  donor_cp.adopt(cert_at(16), std::make_shared<const Bytes>(base_env));
  donor.note_checkpoint(donor_cp);
  donor_cp.adopt(cert_at(32), std::make_shared<const Bytes>(target_env));
  donor.note_checkpoint(donor_cp);

  StateTransferManager fetcher(1024);
  CheckpointManager fetcher_cp(16);
  fetcher_cp.adopt(cert_at(16), std::make_shared<const Bytes>(base_env));
  StateTransferRequestMsg probe = fetcher.make_probe(fetcher_cp, 4, 16);
  fetcher.open_round();

  // A full manifest (donor 9 lost its history) adopts the target first and
  // every chunk gets planned onto it.
  ChunkedSnapshot tsnap(as_span(target_env), 1024);
  RuntimeStats stats;
  ASSERT_TRUE(fetcher.on_manifest(manifest_of(tsnap, /*donor=*/9, /*seq=*/32),
                                  16, fetcher_cp, stats));
  EXPECT_EQ(stats.delta_chunks_skipped, 0u);
  ASSERT_FALSE(fetcher.plan_requests(4).empty());  // all 8 outstanding at 9

  // Donor 1's delta manifest for the same transfer arrives later: the seven
  // unchanged chunks seed immediately, leaving only chunk 2 on the wire.
  auto delta = donor.make_manifest(donor_cp, probe, /*donor=*/1);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->base_seq, 16u);
  ASSERT_TRUE(fetcher.on_manifest(*delta, 16, fetcher_cp, stats));
  EXPECT_EQ(stats.delta_chunks_skipped, 7u);
  EXPECT_EQ(fetcher.chunks_received(), 7u);
  // The seeded chunks were retired from the outstanding marks: a retry tick
  // re-plans exactly the one differing chunk.
  fetcher.on_retry(stats);
  auto plan = fetcher.plan_requests(4);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].second.indices, (std::vector<uint32_t>{2}));

  // Seeded bytes are only covered by the final state-root check; if that
  // fails, the delta's seeder must fall with the adopted manifest's sender —
  // a lying delta section can never wedge the fetch by getting only the
  // honest adopter blamed.
  EXPECT_TRUE(fetcher.on_adopt_result(/*adopted=*/false, /*last_executed=*/16));
  EXPECT_TRUE(fetcher.donor_excluded(9));  // adopted manifest's sender
  EXPECT_TRUE(fetcher.donor_excluded(1));  // delta seeder
}

TEST(StateTransferManagerTest, UnknownBaseFallsBackToFullManifest) {
  Bytes target_env = patterned_envelope(6 * 1024);
  StateTransferManager donor(1024);
  CheckpointManager donor_cp(16);
  donor_cp.adopt(cert_at(32), std::make_shared<const Bytes>(target_env));
  EXPECT_TRUE(donor.note_checkpoint(donor_cp));  // no retired base: no history

  // A probe advertising a base this donor never held gets a full manifest —
  // the wiped/long-gone fetcher path, and the "base it no longer holds" path
  // of the repeated-wipe scenario.
  StateTransferRequestMsg probe;
  probe.requester = 4;
  probe.have_seq = 16;
  probe.base_seq = 16;
  probe.base_root = crypto::sha256(as_span(to_bytes("unknown-base")));
  auto manifest = donor.make_manifest(donor_cp, probe, /*donor=*/1);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->base_seq, 0u);
  EXPECT_TRUE(manifest->delta_bitmap.empty());
  EXPECT_TRUE(manifest->base_map.empty());

  // A wiped fetcher (no shippable pair) advertises no base at all.
  StateTransferManager fetcher(1024);
  CheckpointManager empty_cp(16);
  StateTransferRequestMsg wiped = fetcher.make_probe(empty_cp, 4, 0);
  EXPECT_EQ(wiped.base_seq, 0u);
}

TEST(StateTransferManagerTest, DonorServesAtMostTheCapPerRequest) {
  // A chunk request arrives from outside and may name any indices: the donor
  // answers only the first kMaxChunksPerRequest of them, and never an index
  // past its chunk count.
  constexpr uint32_t kCap = StateTransferManager::kMaxChunksPerRequest;
  Bytes env = patterned_envelope(48 * 1024);
  StateTransferManager donor(1024);
  CheckpointManager cp(16);
  cp.adopt(cert_at(16), std::make_shared<const Bytes>(env));
  ChunkedSnapshot snap(as_span(env), 1024);  // 48 chunks
  RuntimeStats stats;

  StateChunkRequestMsg req;
  req.requester = 4;
  req.seq = 16;
  req.chunk_root = snap.transfer_root();
  for (uint32_t i = 0; i < 40; ++i) req.indices.push_back(i);
  auto served = donor.make_chunks(cp, req, /*self=*/1, stats);
  ASSERT_EQ(served.size(), kCap);
  for (uint32_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(served[i].index, i);
    EXPECT_TRUE(merkle::BlockMerkleTree::verify(
        snap.chunk_root(), ChunkedSnapshot::chunk_leaf(as_span(served[i].data)),
        served[i].proof));
  }

  req.indices = {3, snap.chunk_count(), 5, 0xffffffffu};
  auto in_range = donor.make_chunks(cp, req, 1, stats);
  ASSERT_EQ(in_range.size(), 2u);
  EXPECT_EQ(in_range[0].index, 3u);
  EXPECT_EQ(in_range[1].index, 5u);
  EXPECT_EQ(stats.state_transfer_chunks_served, kCap + 2);
}

}  // namespace
}  // namespace sbft::runtime

// ---------------------------------------------------------------------------
// Seed-bug regressions (ROADMAP "known seed bugs")

namespace sbft::harness {
namespace {

TEST(SeedRegressions, CheckpointSnapshotCapturedAtExecutionNotCertification) {
  // Seed bug: checkpoint snapshots were captured when the certificate formed;
  // by then the service had often executed further, so the shipped
  // (certificate, snapshot) pair failed state-transfer verification. The
  // CheckpointManager must promote the snapshot captured when the checkpoint
  // sequence *executed*, never a live capture from a moved-on service.
  FastKvService service;
  runtime::ReplyCache replies;
  runtime::CheckpointManager manager(4);

  for (int i = 0; i < 4; ++i) service.execute(as_span(to_bytes("op"))); // 1..4
  Digest root4 = service.state_digest();
  manager.capture_pending(4, std::make_shared<const Bytes>(runtime::encode_checkpoint_snapshot(
                                 as_span(service.snapshot()), replies)));

  // The service executes past the checkpoint before its certificate forms.
  service.execute(as_span(to_bytes("op5")));
  service.execute(as_span(to_bytes("op6")));

  ExecCertificate cert;
  cert.seq = 4;
  cert.state_root = root4;
  bool recorded = manager.make_stable(
      cert, /*last_executed=*/6, []() -> std::shared_ptr<const Bytes> {
        ADD_FAILURE() << "live capture would pair moved-on state with the cert";
        return nullptr;
      });
  ASSERT_TRUE(recorded);

  // The shippable pair is consistent: restoring the snapshot reproduces
  // exactly the certified state root.
  auto decoded = runtime::decode_checkpoint_snapshot(as_span(manager.snapshot()));
  ASSERT_TRUE(decoded.has_value());
  FastKvService fresh;
  ASSERT_TRUE(fresh.restore(decoded->service_state));
  EXPECT_EQ(fresh.state_digest(), manager.snapshot_cert().state_root);

  // A later checkpoint whose execution-time snapshot is missing (executed by
  // a previous incarnation) must keep the previous consistent pair.
  ExecCertificate cert8;
  cert8.seq = 8;
  cert8.state_root = service.state_digest();
  EXPECT_FALSE(manager.make_stable(cert8, /*last_executed=*/10,
                                   []() -> std::shared_ptr<const Bytes> {
                                     return nullptr;
                                   }));
  EXPECT_EQ(manager.last_stable(), 8u);          // stable advanced...
  EXPECT_EQ(manager.snapshot_cert().seq, 4u);    // ...shippable pair kept
}

TEST(SeedRegressions, ExactlyQuorumViewChangeRecommitsStalledSlots) {
  // Seed bug: Slot::sent_commit_share was bound to the slot, not to the
  // certificate, so a slot whose slow round stalled in view v could never
  // commit in a later view — with exactly 2f+1 replicas alive every commit
  // share is needed and the view change livelocked.
  ClusterOptions opts;
  opts.kind = ProtocolKind::kLinearPbft;  // slow path only: commit shares on every slot
  opts.f = 1;
  opts.num_clients = 2;
  opts.requests_per_client = 150;
  opts.topology = sim::lan_topology();
  opts.seed = 7;
  Cluster cluster(std::move(opts));
  cluster.run_for(100'000);  // slow-path slots in flight in view 0
  cluster.crash_replica(1);  // view-0 primary; exactly 2f+1 = 3 remain
  ASSERT_TRUE(cluster.run_until_done(600'000'000))
      << "clients stalled: stalled slots were not re-committed in the new view";
  EXPECT_GT(cluster.total_view_changes(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness

// ---------------------------------------------------------------------------
// Reply-cache persistence across checkpoints (EVM-transfer hazard)

namespace sbft::recovery {
namespace {

using evm::CallTx;
using evm::CreateTx;
using evm::EvmLedgerService;
using evm::U256;

evm::U256 word_of(const evm::Address& a) {
  return U256::from_bytes_be(ByteSpan{a.data(), a.size()});
}

struct EvmLedgerFixture {
  evm::Address deployer{{1}};
  evm::Address alice{{2}};
  evm::Address bob{{3}};
  evm::Address token = EvmLedgerService::derive_address(evm::Address{{1}}, 0);

  Bytes op_create() const {
    return evm::encode_create(CreateTx{deployer, evm::token_contract()});
  }
  Bytes op_mint(uint64_t amount) const {
    return evm::encode_call(
        CallTx{alice, token, evm::token_call_mint(word_of(alice), U256(amount))});
  }
  Bytes op_transfer(uint64_t amount) const {
    return evm::encode_call(
        CallTx{alice, token, evm::token_call_transfer(word_of(bob), U256(amount))});
  }
  Bytes op_balance() const {
    return evm::encode_call(
        CallTx{alice, token, evm::token_call_balance_of(word_of(alice))});
  }

  static Bytes block_of(SeqNum s, std::vector<std::pair<uint64_t, Bytes>> reqs) {
    Block block;
    for (auto& [ts, op] : reqs) {
      Request req;
      req.client = 7;
      req.timestamp = ts;
      req.op = std::move(op);
      block.requests.push_back(std::move(req));
    }
    return encode_message(Message(PrePrepareMsg{s, 0, std::move(block)}));
  }

  /// Ledger where block 3 carries a *duplicate* (same client, timestamp 3) of
  /// the transfer executed in block 1 — i.e. a retry that slipped into a
  /// later decision block, whose duplicate lands beyond the checkpoint at 2.
  std::shared_ptr<storage::MemoryLedgerStorage> full_ledger() const {
    auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
    ledger->append_block(1, as_span(block_of(1, {{1, op_create()},
                                                 {2, op_mint(100)},
                                                 {3, op_transfer(10)}})));
    ledger->append_block(2, as_span(block_of(2, {{4, op_balance()}})));
    ledger->append_block(3, as_span(block_of(3, {{3, op_transfer(10)}})));  // dup
    ledger->append_block(4, as_span(block_of(4, {{5, op_balance()}})));
    return ledger;
  }

  /// A runtime on a fresh EVM ledger over `ledger` and `wal` (either may be
  /// null), as a restarted replica would build it before recover().
  static std::unique_ptr<runtime::ReplicaRuntime> runtime_on(
      std::shared_ptr<storage::ILedgerStorage> ledger,
      std::shared_ptr<IReplicaWal> wal) {
    runtime::RuntimeOptions opts;
    opts.ledger = std::move(ledger);
    opts.wal = std::move(wal);
    return std::make_unique<runtime::ReplicaRuntime>(
        std::move(opts), std::make_unique<EvmLedgerService>());
  }

  /// Blocks 1 and 2 of the full ledger, replayed: the checkpoint at 2 with
  /// its certificate, service state and reply cache.
  std::unique_ptr<runtime::ReplicaRuntime> replayed_to_checkpoint() const {
    auto full = full_ledger();
    auto prefix = std::make_shared<storage::MemoryLedgerStorage>();
    prefix->append_block(1, full->read_block(1));
    prefix->append_block(2, full->read_block(2));
    auto at2 = runtime_on(prefix, nullptr);
    if (!at2->recover()) return nullptr;
    return at2;
  }
};

TEST(ReplyCachePersistence, EvmTransferNotReExecutedAfterRecovery) {
  EvmLedgerFixture fx;
  auto ledger = fx.full_ledger();

  // Reference: contiguous replay from genesis. The reply cache built along
  // the way suppresses the duplicate transfer, so alice ends at 90.
  auto reference = fx.runtime_on(ledger, nullptr);
  ASSERT_TRUE(reference->recover().has_value());

  // Checkpoint at 2: replay the prefix once to derive the certificate, the
  // service snapshot, and — the point of this test — the reply cache.
  auto at2 = fx.replayed_to_checkpoint();
  ASSERT_NE(at2, nullptr);
  ASSERT_EQ(at2->last_executed(), 2u);

  auto wal = std::make_shared<MemoryWal>();
  wal->record_checkpoint(
      at2->record(2)->cert,
      as_span(runtime::encode_checkpoint_snapshot(as_span(at2->service().snapshot()),
                                                  at2->replies())));

  // Recover from checkpoint + suffix: the persisted cache must suppress the
  // pre-checkpoint duplicate in block 3 instead of re-executing the transfer.
  auto recovered = fx.runtime_on(ledger, wal);
  ASSERT_TRUE(recovered->recover().has_value());
  EXPECT_EQ(recovered->last_stable(), 2u);
  EXPECT_EQ(recovered->last_executed(), 4u);
  EXPECT_EQ(recovered->stats().blocks_replayed, 2u);  // only the suffix re-executed
  EXPECT_EQ(recovered->service().state_digest(), reference->service().state_digest());
  EXPECT_EQ(recovered->exec_digest_of(4).value(), reference->exec_digest_of(4).value());
  // The recovered cache serves retries of every pre-crash request.
  ASSERT_NE(recovered->replies().find(7), nullptr);
  EXPECT_EQ(recovered->replies().find(7)->timestamp, 5u);
}

TEST(ReplyCachePersistence, CachelessSnapshotIsRefused) {
  // The hazard the envelope closes: a checkpoint snapshot *without* the reply
  // cache would replay the duplicate transfer in block 3 a second time and
  // diverge from the certified execution. Such a bare snapshot can no longer
  // be recovered from at all — recovery refuses it and the replica boots
  // fresh (rejoining via state transfer) instead of double-executing.
  EvmLedgerFixture fx;
  auto ledger = fx.full_ledger();

  auto at2 = fx.replayed_to_checkpoint();
  ASSERT_NE(at2, nullptr);

  auto wal = std::make_shared<MemoryWal>();
  wal->record_checkpoint(at2->record(2)->cert,
                         as_span(at2->service().snapshot()));  // bare: no cache

  EXPECT_FALSE(fx.runtime_on(ledger, wal)->recover().has_value());
}

}  // namespace
}  // namespace sbft::recovery

// ---------------------------------------------------------------------------
// Cross-protocol crash / restart / disk-wipe scenarios (identical Cluster API)

namespace sbft::harness {
namespace {

class CrossProtocolRecovery : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  ClusterOptions base(uint64_t requests) const {
    ClusterOptions opts;
    opts.kind = GetParam();
    opts.f = 1;
    opts.c = 0;
    opts.num_clients = 2;
    opts.requests_per_client = requests;
    opts.topology = sim::lan_topology();
    opts.seed = 11;
    opts.tweak_config = [](ProtocolConfig& config) {
      config.win = 32;  // frequent checkpoints: recovery exercises snapshots
    };
    return opts;
  }
};

TEST_P(CrossProtocolRecovery, CrashRestartRejoinsFromWal) {
  // Acceptance scenario: kill a non-primary replica mid-run, restart it, and
  // watch it recover from WAL + ledger, rejoin, and keep executing — on both
  // protocols, through the same restart_schedule API.
  auto opts = base(400);
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/4'000'000,
                                   /*replica=*/3, /*wipe_storage=*/false});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";

  const ReplicaHandle& restarted = cluster.replica(3);
  EXPECT_EQ(restarted.runtime_stats().recoveries, 1u);
  EXPECT_GT(restarted.runtime_stats().blocks_replayed, 0u)
      << "WAL/ledger were empty";
  // Rejoined: executed well past whatever it recovered to.
  EXPECT_GT(restarted.last_executed(), restarted.runtime_stats().blocks_replayed);
  if (GetParam() == ProtocolKind::kSbft) {
    // Re-entered the fast path (f=1, c=0: fast quorum needs all n=4 replicas,
    // so post-restart fast commits prove the recovered replica participates).
    EXPECT_GT(restarted.sbft()->stats().fast_commits, 0u);
  }
  EXPECT_EQ(cluster.total_recoveries(), 1u);
  EXPECT_GT(cluster.total_wal_bytes_written(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 400u);
  }
}

TEST_P(CrossProtocolRecovery, WipedDiskRecoversViaStateTransfer) {
  auto opts = base(300);
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/5'000'000,
                                   /*replica=*/4, /*wipe_storage=*/true});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
  // Fast protocols may drain the clients before the scheduled restart; play
  // the schedule out and give the wiped replica time to state-transfer.
  if (cluster.simulator().now() < 6'000'000) {
    cluster.run_for(6'000'000 - cluster.simulator().now());
  }
  cluster.run_for(5'000'000);

  const ReplicaHandle& restarted = cluster.replica(4);
  EXPECT_EQ(restarted.runtime_stats().recoveries, 0u);  // nothing local survived
  EXPECT_GT(restarted.runtime_stats().state_transfers, 0u)
      << "empty replica never requested state transfer";
  EXPECT_GT(restarted.last_executed(), 0u) << "never caught up";
  EXPECT_TRUE(cluster.check_agreement());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 300u);
  }
}

TEST_P(CrossProtocolRecovery, RollingRestartKeepsClusterLiveAndSafe) {
  auto opts = base(400);
  opts.restart_schedule.push_back({1'000'000, 3'000'000, 2, false});
  opts.restart_schedule.push_back({5'000'000, 7'000'000, 3, false});
  opts.restart_schedule.push_back({9'000'000, 11'000'000, 4, false});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(900'000'000)) << "clients stalled";
  // Clients may drain before the tail of the schedule; play it out so every
  // scheduled restart (and its recovery) actually happens.
  if (cluster.simulator().now() < 12'000'000) {
    cluster.run_for(12'000'000 - cluster.simulator().now());
  }
  EXPECT_EQ(cluster.total_recoveries(), 3u);
  EXPECT_TRUE(cluster.check_agreement());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 400u);
  }
}

TEST_P(CrossProtocolRecovery, RestartedReplicaServesPreCheckpointDuplicateFromCache) {
  // The acceptance criterion's sharp edge: after recovery, a duplicate of a
  // request executed *before* the stable checkpoint must be answered from the
  // reply cache persisted in the checkpoint snapshot — not re-executed, not
  // dropped. We replay such a duplicate straight at the restarted replica.
  auto opts = base(120);
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;  // checkpoint every 8 blocks
  };
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
  ASSERT_GT(cluster.replica(2).last_stable(), 0u) << "no checkpoint formed";

  cluster.crash_replica(2);
  cluster.run_for(300'000);
  cluster.restart_replica(2);
  cluster.run_for(2'000'000);  // recover + settle

  const ReplicaHandle& restarted = cluster.replica(2);
  EXPECT_EQ(restarted.runtime_stats().recoveries, 1u);

  // Replay client n's first request (timestamp 1 — executed long before the
  // stable checkpoint) against the restarted replica.
  ClientId client = cluster.n();  // first client's node id == its ClientId
  ASSERT_NE(restarted.runtime().replies().find(client), nullptr)
      << "recovered reply cache lost the client";
  uint64_t hits_before = restarted.runtime_stats().reply_cache_hits;
  uint64_t executed_before = restarted.runtime_stats().requests_executed;
  Request dup;
  dup.client = client;
  dup.timestamp = 1;
  dup.op = to_bytes("retry-of-first-request");
  cluster.network().inject(client, restarted.node(),
                           make_message(ClientRequestMsg{dup}));
  cluster.run_for(200'000);

  EXPECT_GT(restarted.runtime_stats().reply_cache_hits, hits_before)
      << "duplicate was not served from the recovered reply cache";
  EXPECT_EQ(restarted.runtime_stats().requests_executed, executed_before)
      << "duplicate re-executed instead of being served from cache";
  EXPECT_TRUE(cluster.check_agreement());
}

INSTANTIATE_TEST_SUITE_P(Protocols, CrossProtocolRecovery,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

// ---------------------------------------------------------------------------
// Sealed decision blocks (docs/performance.md): the pre-prepare every replica
// receives, its slot, its execution record and its ledger record share one
// block body.

class SharedDecisionBlocks : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  /// A small cluster of the parameter's protocol, run until its clients
  /// finish. The window holds every slot, so no execution record is gc'd.
  std::unique_ptr<Cluster> finished_cluster() const {
    ClusterOptions opts;
    opts.kind = GetParam();
    opts.f = 1;
    opts.c = 0;
    opts.num_clients = 2;
    opts.requests_per_client = 20;
    opts.topology = sim::lan_topology();
    opts.seed = 3;
    auto cluster = std::make_unique<Cluster>(std::move(opts));
    if (!cluster->run_until_done(600'000'000)) return nullptr;
    return cluster;
  }

  /// The highest sequence number every replica executed.
  static SeqNum executed_by_all(Cluster& cluster) {
    SeqNum s = cluster.replica(1).last_executed();
    for (ReplicaId r = 2; r <= cluster.num_replicas(); ++r) {
      s = std::min(s, cluster.replica(r).last_executed());
    }
    return s;
  }
};

TEST_P(SharedDecisionBlocks, EveryReplicaRecordsOneBlockBody) {
  auto run = finished_cluster();
  ASSERT_NE(run, nullptr) << "clients stalled";
  Cluster& cluster = *run;

  const SeqNum s = executed_by_all(cluster);
  ASSERT_GT(s, 0u);
  const runtime::ExecutionRecord* first = cluster.replica(1).runtime().record(s);
  ASSERT_NE(first, nullptr);
  ASSERT_FALSE(first->block.requests().empty());
  for (ReplicaId r = 2; r <= cluster.num_replicas(); ++r) {
    const runtime::ExecutionRecord* rec = cluster.replica(r).runtime().record(s);
    ASSERT_NE(rec, nullptr) << "replica " << r;
    // The same request vector, not an equal copy: a per-replica deep copy of
    // the block anywhere on the path fails this.
    EXPECT_EQ(&rec->block.requests(), &first->block.requests()) << "replica " << r;
  }
}

TEST_P(SharedDecisionBlocks, EveryReplicaLedgersOneRecord) {
  auto run = finished_cluster();
  ASSERT_NE(run, nullptr) << "clients stalled";
  Cluster& cluster = *run;

  const SeqNum last = executed_by_all(cluster);
  ASSERT_GT(last, 0u);
  for (SeqNum s = 1; s <= last; ++s) {
    auto first = cluster.replica_ledger(1)->read_block(s);
    ASSERT_NE(first, nullptr) << "seq " << s;
    for (ReplicaId r = 2; r <= cluster.num_replicas(); ++r) {
      // The same buffer, not an equal copy: a per-replica encoding of the
      // record fails this.
      EXPECT_EQ(cluster.replica_ledger(r)->read_block(s), first)
          << "replica " << r << " seq " << s;
    }
    auto msg = decode_message(as_span(*first));
    ASSERT_TRUE(msg && std::holds_alternative<PrePrepareMsg>(*msg)) << "seq " << s;
    const auto& pp = std::get<PrePrepareMsg>(*msg);
    EXPECT_EQ(pp.seq, s);
    const runtime::ExecutionRecord* rec = cluster.replica(1).runtime().record(s);
    ASSERT_NE(rec, nullptr) << "seq " << s;
    EXPECT_EQ(pp.block.digest(), rec->block.digest()) << "seq " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SharedDecisionBlocks,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

// ---------------------------------------------------------------------------
// Execution records (docs/architecture.md): a record holds its replies in one
// buffer with no spare capacity, and its leaves and offsets at the block's
// request count, until the next stable checkpoint retires it.

/// Stands in for a client: keeps the value of every execute-ack (SBFT) and
/// direct reply (PBFT) it receives.
struct ReplyProbe : sim::IActor {
  void on_message(NodeId, const Message& msg, sim::ActorContext&) override {
    if (const auto* ack = std::get_if<ExecuteAckMsg>(&msg)) values.push_back(ack->value);
    if (const auto* reply = std::get_if<ClientReplyMsg>(&msg)) {
      values.push_back(reply->value);
    }
  }
  std::vector<Bytes> values;
};

class ExecutionRecords
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, bool>> {};

TEST_P(ExecutionRecords, HoldTheirRepliesAtExactSize) {
  auto [kind, authenticated_store] = GetParam();
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.num_clients = 0;
  opts.topology = sim::lan_topology();
  opts.seed = 5;
  // At most four slots in flight on both engines, so requests that arrive
  // together share a block, and no checkpoint (at seq 8) retires a record.
  opts.tweak_config = [](ProtocolConfig& config) { config.win = 16; };
  if (authenticated_store) {
    opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  }
  Cluster cluster(std::move(opts));
  cluster.run_for(1'000);  // the replicas start before the probes send

  // Twelve probes, each one request: puts of values of different lengths,
  // and gets of those keys and of a missing one, so the KV store's replies
  // vary in length and some are empty (FastKvService answers "OK" to each).
  constexpr int kProbes = 12;
  std::vector<std::unique_ptr<ReplyProbe>> probes;
  std::map<ClientId, ReplyProbe*> by_client;
  for (int i = 0; i < kProbes; ++i) {
    probes.push_back(std::make_unique<ReplyProbe>());
    NodeId node = cluster.network().add_node(probes.back().get());
    by_client[node] = probes.back().get();
    Bytes key = to_bytes("key-" + std::to_string(i / 3));
    Request req;
    req.client = node;
    req.timestamp = 1;
    req.op = i % 3 == 0   ? kv::encode_put(as_span(key), as_span(Bytes(i + 1, 'v')))
             : i % 3 == 1 ? kv::encode_get(as_span(key))
                          : kv::encode_get(as_span(to_bytes("missing")));
    cluster.network().inject(node, cluster.replica(1).node(),  // the primary
                             make_message(ClientRequestMsg{req}));
  }
  cluster.run_for(2'000'000);

  std::set<ClientId> answered;
  bool multi_request_block = false;
  for (ReplicaId r = 1; r <= cluster.num_replicas(); ++r) {
    const runtime::ReplicaRuntime& runtime = cluster.replica(r).runtime();
    ASSERT_EQ(runtime.last_stable(), 0u);
    for (SeqNum s = 1; s <= runtime.last_executed(); ++s) {
      const runtime::ExecutionRecord* rec = runtime.record(s);
      ASSERT_NE(rec, nullptr) << "replica " << r << " seq " << s;
      const size_t k = rec->block.requests().size();
      multi_request_block |= k > 1;
      EXPECT_EQ(rec->leaves.capacity(), k) << "replica " << r << " seq " << s;
      EXPECT_EQ(rec->values.size(), k) << "replica " << r << " seq " << s;
      EXPECT_EQ(rec->values.ends().capacity(), k) << "replica " << r << " seq " << s;
      EXPECT_EQ(rec->values.bytes().capacity(), rec->values.bytes().size())
          << "replica " << r << " seq " << s;
      for (size_t l = 0; l < k; ++l) {
        const Request& req = rec->block.requests()[l];
        ReplyProbe* probe = by_client.at(req.client);
        ASSERT_FALSE(probe->values.empty()) << "client " << req.client;
        for (const Bytes& received : probe->values) {
          EXPECT_EQ(received, to_bytes(rec->values[l])) << "client " << req.client;
        }
        answered.insert(req.client);
      }
    }
  }
  EXPECT_EQ(answered.size(), size_t{kProbes});
  EXPECT_TRUE(multi_request_block);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndStores, ExecutionRecords,
    ::testing::Combine(::testing::Values(ProtocolKind::kSbft, ProtocolKind::kPbft),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, bool>>& info) {
      return std::string(std::get<0>(info.param) == ProtocolKind::kSbft ? "Sbft"
                                                                       : "Pbft") +
             (std::get<1>(info.param) ? "KvService" : "FastKvService");
    });

// ---------------------------------------------------------------------------
// One proposer (runtime::EngineShell::try_propose): both engines cut blocks
// through the shell's pipeline, and each keeps its own proposal window —
// SBFT (n-1)/(c+1) slots in flight (§VIII), PBFT a quarter of the watermark
// window.

class SharedProposer : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  struct Pipeline {
    size_t peak_open_slots = 0;  // the primary's concurrently open slot spans
    SeqNum blocks = 0;
    uint64_t requests = 0;
    uint64_t pending_wait_samples = 0;  // primary's stage.pending_wait_us
  };

  /// Runs f=1 with `clients` closed-loop clients of 50 requests each and
  /// reads the view-0 primary's slot spans and registry.
  Pipeline run(uint32_t clients) const {
    ClusterOptions opts;
    opts.kind = GetParam();
    opts.f = 1;
    opts.c = 0;
    opts.num_clients = clients;
    opts.requests_per_client = 50;
    opts.topology = sim::lan_topology();
    opts.seed = 3;
    opts.tracing = true;
    Cluster cluster(std::move(opts));
    EXPECT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
    EXPECT_EQ(cluster.total_view_changes(), 0u);
    EXPECT_TRUE(cluster.check_agreement());

    const ReplicaHandle& primary = cluster.replica(1);
    EXPECT_EQ(primary.tracer()->dropped(), 0u) << "trace ring wrapped";
    Pipeline p;
    std::set<uint64_t> open;
    for (const obs::TraceEvent& e : primary.tracer()->events()) {
      if (e.category != obs::Category::kSlot ||
          std::string_view(e.name) != obs::ev::kSlot) {
        continue;
      }
      if (e.phase == obs::EventPhase::kBegin) open.insert(e.span);
      if (e.phase == obs::EventPhase::kEnd) open.erase(e.span);
      p.peak_open_slots = std::max(p.peak_open_slots, open.size());
    }
    p.blocks = primary.last_executed();
    p.requests = primary.runtime_stats().requests_executed;
    if (const obs::Histogram* h =
            primary.metrics()->find_histogram("stage.pending_wait_us")) {
      p.pending_wait_samples = h->count();
    }
    return p;
  }
};

TEST_P(SharedProposer, OneClientGetsOneRequestPerBlock) {
  Pipeline p = run(1);
  EXPECT_EQ(p.peak_open_slots, 1u);
  EXPECT_EQ(p.requests, 50u);
  EXPECT_EQ(p.blocks, 50u);
  EXPECT_GT(p.pending_wait_samples, 0u);
}

TEST_P(SharedProposer, EachEngineKeepsItsOwnWindow) {
  // f=1, c=0: n=4, so SBFT's collector window is (4-1)/(0+1) = 3 slots;
  // PBFT's is win/4 = 64 (default win 256).
  constexpr size_t kSbftWindow = 3;
  constexpr size_t kPbftWindow = 256 / 4;
  for (uint32_t clients : {32u, 128u}) {
    Pipeline p = run(clients);
    EXPECT_EQ(p.requests, 50u * clients) << clients << " clients";
    EXPECT_GT(p.pending_wait_samples, 0u) << clients << " clients";
    if (GetParam() == ProtocolKind::kSbft) {
      EXPECT_EQ(p.peak_open_slots, kSbftWindow) << clients << " clients";
    } else {
      EXPECT_GT(p.peak_open_slots, kSbftWindow) << clients << " clients";
      EXPECT_LE(p.peak_open_slots, kPbftWindow) << clients << " clients";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SharedProposer,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

// ---------------------------------------------------------------------------
// Chunked state transfer scenarios (docs/state_transfer.md describes the
// exact message flow these exercise; docs/scenarios.md indexes them). All run
// on both protocols through the identical Cluster API.

class ChunkedStateTransfer : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  /// Cluster whose replicas carry a real (multi-hundred-KB) KV state, so the
  /// checkpoint snapshot spans many chunks at the configured chunk size.
  ClusterOptions base(uint64_t requests, uint32_t chunk_size,
                      uint32_t value_size) const {
    ClusterOptions opts;
    opts.kind = GetParam();
    opts.f = 1;
    opts.c = 0;
    opts.num_clients = 2;
    opts.requests_per_client = requests;
    opts.topology = sim::lan_topology();
    opts.seed = 23;
    opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
    KvWorkloadOptions kv;
    kv.value_size = value_size;
    kv.key_space = 4096;
    opts.op_factory = kv_op_factory(kv);
    opts.tweak_config = [chunk_size](ProtocolConfig& config) {
      config.win = 32;  // frequent checkpoints
      config.state_transfer_chunk_size = chunk_size;
      config.state_transfer_retry_us = 200'000;
    };
    return opts;
  }

  const runtime::RuntimeStats& stats_of(Cluster& cluster, ReplicaId r) const {
    return cluster.replica(r).runtime_stats();
  }

  /// Runs until the wiped replica has stored its first chunks but not yet
  /// adopted the checkpoint — i.e. provably mid-transfer.
  ::testing::AssertionResult run_until_mid_transfer(Cluster& cluster,
                                                    ReplicaId fetcher) {
    for (int i = 0; i < 2000; ++i) {
      if (stats_of(cluster, fetcher).state_transfer_chunks_fetched > 0) break;
      cluster.run_for(5'000);
    }
    if (stats_of(cluster, fetcher).state_transfer_chunks_fetched == 0) {
      return ::testing::AssertionFailure() << "state transfer never started";
    }
    if (cluster.replica(fetcher).last_executed() != 0) {
      return ::testing::AssertionFailure()
             << "transfer completed before the fault could be injected";
    }
    return ::testing::AssertionSuccess();
  }

  /// Runs until the fetcher adopted a checkpoint (last_executed > 0).
  bool run_until_adopted(Cluster& cluster, ReplicaId fetcher) {
    for (int i = 0; i < 1200; ++i) {
      if (cluster.replica(fetcher).last_executed() > 0) return true;
      cluster.run_for(50'000);
    }
    return false;
  }
};

TEST_P(ChunkedStateTransfer, WipedReplicaRejoinsViaMultiChunkEvmTransfer) {
  // The acceptance scenario: a disk-wiped replica with a large EVM snapshot
  // (ERC-20-style tokens, balances, contract code) rejoins through chunked
  // state transfer on both protocols.
  ClusterOptions opts;
  opts.kind = GetParam();
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 40;
  opts.topology = sim::lan_topology();
  opts.seed = 29;
  opts.service_factory = [] { return std::make_unique<evm::EvmLedgerService>(); };
  opts.per_client_op_factory = [](ClientId id) {
    return eth_op_factory(id, EthWorkloadOptions{});
  };
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;  // checkpoint every 8 blocks
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/4'000'000,
                                   /*replica=*/4, /*wipe_storage=*/true});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
  if (cluster.simulator().now() < 5'000'000) {
    cluster.run_for(5'000'000 - cluster.simulator().now());
  }
  ASSERT_TRUE(run_until_adopted(cluster, 4)) << "wiped replica never caught up";

  const ReplicaHandle& restarted = cluster.replica(4);
  EXPECT_EQ(restarted.runtime_stats().recoveries, 0u);  // nothing local survived
  EXPECT_GT(restarted.runtime_stats().state_transfers, 0u);
  // The EVM snapshot spans many chunks at a 1KB chunk size.
  EXPECT_GE(restarted.runtime_stats().state_transfer_chunks_fetched, 4u);
  EXPECT_GT(restarted.last_stable(), 0u);
  EXPECT_EQ(restarted.runtime_stats().state_transfer_invalid_chunks, 0u);
  EXPECT_TRUE(cluster.check_agreement());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 40u);
  }
}

TEST_P(ChunkedStateTransfer, MidTransferDonorCrashIsSurvivedByResume) {
  auto opts = base(/*requests=*/250, /*chunk_size=*/2048, /*value_size=*/1024);
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  // Wipe replica 4; stretch its RTTs so the transfer takes many rounds and
  // the fault window below is wide.
  cluster.crash_replica(4);
  cluster.run_for(200'000);
  cluster.network().set_extra_latency(cluster.replica(4).node(), 20'000);
  cluster.restart_replica(4, /*wipe_storage=*/true);
  ASSERT_TRUE(run_until_mid_transfer(cluster, 4));

  // One of the donors dies mid-transfer. Its outstanding chunks go
  // unanswered; the retry tick re-plans them onto the surviving donors and
  // the fetch *resumes* — received chunks are never re-fetched.
  cluster.crash_replica(2);
  ASSERT_TRUE(run_until_adopted(cluster, 4)) << "transfer never completed";

  const runtime::RuntimeStats& st = stats_of(cluster, 4);
  EXPECT_GE(st.state_transfer_resumes, 1u) << "fetch restarted instead of resuming";
  EXPECT_EQ(st.state_transfer_invalid_chunks, 0u);
  EXPECT_GT(cluster.replica(4).last_stable(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST_P(ChunkedStateTransfer, PartitionDuringTransferResumesAfterHeal) {
  // First of the ROADMAP scenario ideas (docs/scenarios.md): partition during
  // restart — here cutting the fetcher off mid-transfer — must suspend the
  // fetch and resume it after the heal, not restart it.
  auto opts = base(/*requests=*/250, /*chunk_size=*/2048, /*value_size=*/1024);
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  cluster.crash_replica(4);
  cluster.run_for(200'000);
  cluster.network().set_extra_latency(cluster.replica(4).node(), 20'000);
  cluster.restart_replica(4, /*wipe_storage=*/true);
  ASSERT_TRUE(run_until_mid_transfer(cluster, 4));

  // Cut the fetcher off from every peer mid-transfer.
  NodeId fetcher_node = cluster.replica(4).node();
  for (ReplicaId r = 1; r <= cluster.n(); ++r) {
    if (r != 4) cluster.network().disconnect(fetcher_node, cluster.replica(r).node());
  }
  cluster.run_for(300'000);  // drain whatever was already in flight
  uint64_t fetched_at_cut = stats_of(cluster, 4).state_transfer_chunks_fetched;
  ASSERT_GT(fetched_at_cut, 0u);
  cluster.run_for(1'000'000);  // several retry ticks fire into the void
  EXPECT_EQ(stats_of(cluster, 4).state_transfer_chunks_fetched, fetched_at_cut)
      << "chunks crossed a cut link";
  EXPECT_EQ(cluster.replica(4).last_executed(), 0u);

  for (ReplicaId r = 1; r <= cluster.n(); ++r) {
    if (r != 4) cluster.network().reconnect(fetcher_node, cluster.replica(r).node());
  }
  ASSERT_TRUE(run_until_adopted(cluster, 4)) << "transfer never completed after heal";

  const runtime::RuntimeStats& st = stats_of(cluster, 4);
  // The partition's retry ticks ran with partial data in hand: resumes, and
  // the pre-partition chunks were kept (total fetched only grew).
  EXPECT_GE(st.state_transfer_resumes, 1u);
  EXPECT_GT(st.state_transfer_chunks_fetched, fetched_at_cut);
  EXPECT_GT(cluster.replica(4).last_stable(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST_P(ChunkedStateTransfer, CorruptChunkDetectedAndRefetchedFromHonestDonor) {
  // A donor serving a bit-flipped chunk is caught by per-chunk Merkle
  // verification, excluded, and its chunks are re-fetched from the honest
  // donors — on both protocols (the corruption sits in the shared
  // chunk-serving path, so this needs no Byzantine ordering behaviour).
  auto opts = base(/*requests=*/120, /*chunk_size=*/2048, /*value_size=*/512);
  opts.corrupt_chunk_replicas = {2};
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/4'000'000,
                                   /*replica=*/4, /*wipe_storage=*/true});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";
  if (cluster.simulator().now() < 5'000'000) {
    cluster.run_for(5'000'000 - cluster.simulator().now());
  }
  ASSERT_TRUE(run_until_adopted(cluster, 4)) << "wiped replica never caught up";

  const runtime::RuntimeStats& st = stats_of(cluster, 4);
  EXPECT_GT(st.state_transfer_invalid_chunks, 0u)
      << "the corrupt donor was never detected";
  EXPECT_GT(cluster.replica(4).last_stable(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

// ---------------------------------------------------------------------------
// Delta state transfer, repeated disk wipe
// (docs/state_transfer.md "delta manifests"; docs/scenarios.md)

TEST_P(ChunkedStateTransfer, BrieflyLaggingReplicaRejoinsViaDelta) {
  // A replica that crashes for a couple of checkpoints and keeps its disk
  // must rejoin by fetching only the chunks that changed, seeding the rest
  // from the checkpoint it already holds.
  ClusterOptions opts;
  opts.kind = GetParam();
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 41;
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  opts.op_factory = hot_range_kv_op_factory(/*key_space=*/4096, /*hot=*/32,
                                            /*value_size=*/256,
                                            /*ops_per_request=*/16);
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(4'000'000);  // populate the keyspace + form checkpoints
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  cluster.crash_replica(3);
  // Let the cluster seal a bounded number of new checkpoints (so the downed
  // replica's base stays within the donors' delta history) before restart.
  SeqNum stable_at_crash = cluster.replica(1).last_stable();
  uint64_t interval = cluster.config().checkpoint_interval();
  for (int i = 0; i < 400; ++i) {
    if (cluster.replica(1).last_stable() >= stable_at_crash + 2 * interval) break;
    cluster.run_for(50'000);
  }
  ASSERT_GE(cluster.replica(1).last_stable(), stable_at_crash + 2 * interval)
      << "cluster never advanced past the crashed replica";
  cluster.restart_replica(3);  // disk intact: recovers, then probes with a base

  for (int i = 0; i < 400; ++i) {
    if (stats_of(cluster, 3).delta_chunks_skipped > 0 &&
        cluster.replica(3).last_stable() > stable_at_crash) {
      break;
    }
    cluster.run_for(50'000);
  }
  const runtime::RuntimeStats& st = stats_of(cluster, 3);
  EXPECT_EQ(st.recoveries, 1u);  // local WAL survived
  EXPECT_GT(st.state_transfers, 0u);
  EXPECT_GT(st.delta_chunks_skipped, 0u)
      << "delta rejoin never engaged (full transfer instead)";
  EXPECT_GT(cluster.replica(3).last_stable(), stable_at_crash);
  // The point of the delta: with ~32 of 4096 keys hot, the bytes fetched over
  // the wire are a small fraction of the bytes seeded from the local base.
  EXPECT_GE(st.delta_bytes_saved, 3 * st.state_transfer_bytes_transferred)
      << "delta saved too little: " << st.delta_bytes_saved << " saved vs "
      << st.state_transfer_bytes_transferred << " fetched";
  EXPECT_EQ(st.state_transfer_invalid_chunks, 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST_P(ChunkedStateTransfer, RepeatedDiskWipeOfSameReplicaRefetchesFull) {
  // ROADMAP scenario "repeated disk wipe of the same replica": the second
  // wipe must re-fetch the full snapshot — never attempt a delta against a
  // base the wiped disk no longer holds.
  auto opts = base(/*requests=*/0, /*chunk_size=*/2048, /*value_size=*/512);
  // Pin static batching: the zero-delta assertions below require catch-up to
  // finish in ONE transfer round. The adaptive controller changes the block
  // cadence enough for the cluster to seal a checkpoint mid-transfer, which
  // adds a second round that legitimately deltas against the full snapshot
  // this incarnation just fetched — not the stale-base bug this test guards.
  auto inner = opts.tweak_config;
  opts.tweak_config = [inner](ProtocolConfig& config) {
    inner(config);
    config.adaptive_batching = false;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'500'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  for (int wipe = 1; wipe <= 2; ++wipe) {
    cluster.crash_replica(4);
    cluster.run_for(300'000);
    cluster.restart_replica(4, /*wipe_storage=*/true);
    ASSERT_TRUE(run_until_adopted(cluster, 4))
        << "wiped replica never caught up (wipe #" << wipe << ")";
    const runtime::RuntimeStats& st = stats_of(cluster, 4);  // this incarnation
    EXPECT_EQ(st.recoveries, 0u) << "nothing local should survive a wipe";
    EXPECT_GT(st.state_transfer_chunks_fetched, 0u);
    EXPECT_EQ(st.delta_chunks_skipped, 0u)
        << "wipe #" << wipe << " attempted a delta without a base";
    EXPECT_EQ(st.delta_bytes_saved, 0u);
    cluster.run_for(1'000'000);  // participate before the next wipe
  }
  EXPECT_TRUE(cluster.check_agreement());
}

TEST_P(ChunkedStateTransfer, DeltaHistoryDepthBoundsDelta) {
  // A donor retains StateTransferManager::kDeltaHistory delta bases. A
  // rejoiner whose base fell further behind must fall back to a full-chunked
  // transfer.
  constexpr uint64_t kGap = runtime::StateTransferManager::kDeltaHistory + 2;
  auto opts = base(/*requests=*/600, /*chunk_size=*/2048, /*value_size=*/512);
  // Hot/cold workload: uniform-random puts shift the snapshot layout in
  // nearly every chunk, leaving nothing for a delta to skip, so a zero skip
  // count would prove nothing. Populate 512 keys once, then churn only the
  // first 32, so the cold chunks stay byte-identical across the gap and only
  // the history depth stands between the rejoiner and a delta.
  opts.op_factory = hot_range_kv_op_factory(/*key_space=*/512, /*hot=*/32,
                                            /*value_size=*/512,
                                            /*ops_per_request=*/1);
  Cluster cluster(std::move(opts));
  cluster.run_for(2'000'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  cluster.crash_replica(3);
  SeqNum stable_at_crash = cluster.replica(1).last_stable();
  uint64_t interval = cluster.config().checkpoint_interval();
  // Let the survivors seal kGap more checkpoints — safely past the history
  // depth — then drain ALL client traffic before the restart, so the rejoin
  // is exactly one transfer round against a frozen stable seq (a moving
  // target could legitimately add a second, delta round).
  for (int i = 0; i < 2000; ++i) {
    if (cluster.replica(1).last_stable() >= stable_at_crash + kGap * interval)
      break;
    cluster.run_for(50'000);
  }
  ASSERT_GE(cluster.replica(1).last_stable(), stable_at_crash + kGap * interval)
      << "workload too small to outrun the delta history";
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";

  cluster.restart_replica(3);  // disk intact: recovers, probes with a base
  for (int i = 0; i < 400; ++i) {
    if (cluster.replica(3).last_stable() > stable_at_crash) break;
    cluster.run_for(50'000);
  }
  const runtime::RuntimeStats& st = stats_of(cluster, 3);
  EXPECT_GT(cluster.replica(3).last_stable(), stable_at_crash)
      << "rejoiner never caught up";
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_GT(st.state_transfer_chunks_fetched, 0u);
  EXPECT_EQ(st.delta_chunks_skipped, 0u)
      << "base beyond the history depth must fall back to full-chunked";
  EXPECT_EQ(st.state_transfer_invalid_chunks, 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChunkedStateTransfer,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

// ---------------------------------------------------------------------------
// Group reconfiguration scenarios (docs/reconfiguration.md; ctest -L reconfig)

class Reconfiguration : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  ClusterOptions base(uint32_t f, uint64_t seed) const {
    ClusterOptions opts;
    opts.kind = GetParam();
    opts.f = f;
    opts.c = 0;
    opts.num_clients = 2;
    opts.requests_per_client = 0;  // free-running: reconfig needs live traffic
    opts.topology = sim::lan_topology();
    opts.seed = seed;
    opts.tweak_config = [](ProtocolConfig& config) {
      config.win = 16;  // checkpoint every 8 blocks: epochs activate quickly
      config.state_transfer_chunk_size = 1024;
      config.state_transfer_retry_us = 200'000;
    };
    return opts;
  }

  /// Runs until `pred` holds, in 100ms steps, up to ~60s of simulated time.
  template <typename Pred>
  bool run_until(Cluster& cluster, Pred&& pred) {
    for (int i = 0; i < 600; ++i) {
      if (pred()) return true;
      cluster.run_for(100'000);
    }
    return pred();
  }

  uint64_t total_completed(Cluster& cluster) const {
    uint64_t total = 0;
    for (size_t i = 0; i < cluster.num_clients(); ++i) {
      total += cluster.client(i).completed();
    }
    return total;
  }
};

TEST_P(Reconfiguration, AddedReplicasJoinViaStateTransferAndSurviveNewF) {
  // The acceptance scenario: three replicas added by one ReconfigBlockMsg
  // join an f=1 cluster as wiped state-transfer fetchers; the enlarged
  // cluster (n=7, f=2) then keeps committing with two replicas crashed —
  // impossible at the old f.
  Cluster cluster(base(/*f=*/1, /*seed=*/51));
  cluster.run_for(1'500'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  ReplicaId a = cluster.add_replica();
  ReplicaId b = cluster.add_replica();
  ReplicaId c = cluster.add_replica();
  ASSERT_EQ(a, 5u);
  ASSERT_EQ(c, 7u);
  cluster.submit_reconfig({a, b, c}, {}, /*new_f=*/2);

  ASSERT_TRUE(run_until(cluster, [&] {
    return cluster.replica(a).runtime_stats().joins_completed == 1 &&
           cluster.replica(b).runtime_stats().joins_completed == 1 &&
           cluster.replica(c).runtime_stats().joins_completed == 1;
  })) << "added replicas never joined";
  EXPECT_GE(cluster.replica(1).runtime_stats().epochs_activated, 1u);
  for (ReplicaId r : {a, b, c}) {
    const runtime::RuntimeStats& st = cluster.replica(r).runtime_stats();
    EXPECT_EQ(st.recoveries, 0u) << "joiner " << r << " had local state";
    EXPECT_GT(st.state_transfer_chunks_fetched, 0u)
        << "joiner " << r << " did not arrive via wiped state transfer";
    EXPECT_GT(cluster.replica(r).last_executed(), 0u);
  }

  // Joined replicas participate: the cluster keeps executing past the join.
  SeqNum joined_le = cluster.replica(1).last_executed();
  ASSERT_TRUE(run_until(cluster, [&] {
    return cluster.replica(a).last_executed() > joined_le;
  })) << "joined replica never executed new blocks";

  // f faults at the new f: one original and one added replica crash.
  cluster.crash_replica(4);
  cluster.crash_replica(b);
  SeqNum le_before = cluster.replica(1).last_executed();
  uint64_t completed_before = total_completed(cluster);
  ASSERT_TRUE(run_until(cluster, [&] {
    return cluster.replica(1).last_executed() > le_before + 4 &&
           total_completed(cluster) > completed_before + 8;
  })) << "enlarged cluster lost liveness under f=2 faults";
  EXPECT_TRUE(cluster.check_agreement());
}

TEST_P(Reconfiguration, RemovedReplicasDrainAndClusterStaysLive) {
  // Shrink n=7 (f=2) to n=4 (f=1): the removed replicas stop executing and
  // voting the moment the epoch activates, and the survivors keep serving.
  Cluster cluster(base(/*f=*/2, /*seed=*/53));
  cluster.run_for(1'500'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  cluster.submit_reconfig({}, {5, 6, 7}, /*new_f=*/1);
  ASSERT_TRUE(run_until(cluster, [&] {
    return cluster.replica(1).runtime_stats().epochs_activated >= 1 &&
           cluster.replica(5).runtime_stats().epochs_activated >= 1;
  })) << "removal epoch never activated";

  // Drain: the removed replicas refuse post-epoch work — their execution
  // freezes while the shrunk cluster keeps committing.
  cluster.run_for(500'000);  // let in-flight pre-epoch work settle
  SeqNum frozen5 = cluster.replica(5).last_executed();
  SeqNum frozen6 = cluster.replica(6).last_executed();
  SeqNum le_before = cluster.replica(1).last_executed();
  uint64_t completed_before = total_completed(cluster);
  ASSERT_TRUE(run_until(cluster, [&] {
    return cluster.replica(1).last_executed() > le_before + 8 &&
           total_completed(cluster) > completed_before + 8;
  })) << "shrunk cluster lost liveness";
  EXPECT_EQ(cluster.replica(5).last_executed(), frozen5)
      << "removed replica kept executing";
  EXPECT_EQ(cluster.replica(6).last_executed(), frozen6);

  // A removed replica that crashes and restarts re-retires from its
  // recovered WAL (which carries the epoch that excluded it): it must not
  // come back as a perpetual state-transfer prober, let alone a voter.
  cluster.crash_replica(6);
  cluster.run_for(300'000);
  cluster.restart_replica(6);
  cluster.run_for(2'000'000);
  EXPECT_EQ(cluster.replica(6).last_executed(), frozen6)
      << "restarted removed replica resumed executing";
  EXPECT_EQ(cluster.replica(6).runtime_stats().state_transfers, 0u)
      << "restarted removed replica probes state transfer forever";
  EXPECT_TRUE(cluster.check_agreement());
}

TEST_P(Reconfiguration, IdleClusterNoopFillsToTheActivationBoundary) {
  // A staged reconfiguration activates at the next stable checkpoint — but a
  // checkpoint needs committed sequence numbers. With zero clients nothing
  // would ever commit, so the primary fills the gap with no-op blocks until
  // the activation boundary (docs/performance.md, "no-op fill").
  ClusterOptions opts = base(/*f=*/2, /*seed=*/61);
  opts.num_clients = 0;
  Cluster cluster(std::move(opts));
  cluster.run_for(500'000);
  EXPECT_EQ(cluster.max_executed(), 0u) << "idle cluster committed blocks";

  cluster.submit_reconfig({}, {5, 6, 7}, /*new_f=*/1);
  ASSERT_TRUE(run_until(cluster, [&] {
    return cluster.replica(1).runtime_stats().epochs_activated >= 1 &&
           cluster.replica(5).runtime_stats().epochs_activated >= 1;
  })) << "idle cluster never reached the activation boundary";

  uint64_t noops = 0;
  cluster.replica(1).for_each_stat([&](std::string_view name, uint64_t value) {
    if (name == "noop_fill_blocks") noops = value;
  });
  EXPECT_GT(noops, 0u) << "activation progressed without no-op fill";
  EXPECT_TRUE(cluster.check_agreement());
}

INSTANTIATE_TEST_SUITE_P(Protocols, Reconfiguration,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

TEST(PbftWipedRejoin, AfterGrowReconfigCatchesUp) {
  // Regression for a schedule-fuzzer find (tests/fuzz_corpus/
  // seed-5-pbft-wiped-rejoin.sched): after a grow reconfiguration (f 1 -> 2),
  // a replica that crashes and restarts wiped was stranded at sequence 0
  // forever. Two compounding PBFT bugs:
  //   1. The history-less fetcher only knows its boot roster (activated_at
  //      0), so it demanded 2*f_new+1 = 5 checkpoint signature shares for a
  //      checkpoint that donors — correctly attributing it to the
  //      pre-activation epoch — prove with 2*f_old+1 = 3. Every certificate
  //      was rejected, forever. The weak-certificate rule (f+1 distinct
  //      member shares contain an honest voucher) is the sound threshold for
  //      a fetcher that cannot date the checkpoint.
  //   2. Once a checkpoint far behind the live frontier was adopted, the
  //      replica dropped every current pre-prepare as out-of-window, so
  //      execution_gap() (which inspects the slot map) never re-armed state
  //      transfer and checkpoint evidence a full window ahead was ignored.
  ClusterOptions opts;
  opts.kind = ProtocolKind::kPbft;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 51;
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(1'500'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  ReplicaId a = cluster.add_replica();
  ReplicaId b = cluster.add_replica();
  ReplicaId c = cluster.add_replica();
  cluster.submit_reconfig({a, b, c}, {}, /*new_f=*/2);
  bool joined = false;
  for (int i = 0; i < 600 && !joined; ++i) {
    joined = cluster.replica(c).runtime_stats().joins_completed == 1;
    cluster.run_for(100'000);
  }
  ASSERT_TRUE(joined) << "grow reconfiguration never completed";

  // The fuzzer's minimized shape: crash an *original* replica shortly after
  // activation, restart it wiped. Its newest reachable checkpoint then sits
  // at (or before) the activation boundary with only the old epoch's shares.
  cluster.crash_replica(3);
  cluster.run_for(1'000'000);
  cluster.restart_replica(3, /*wipe_storage=*/true);
  cluster.run_for(10'000'000);

  const runtime::RuntimeStats& st = cluster.replica(3).runtime_stats();
  EXPECT_GE(st.state_transfers, 1u) << "wiped replica never fetched state";
  EXPECT_GE(cluster.replica(3).last_executed(),
            cluster.replica(1).last_stable())
      << "wiped replica stranded behind the stable frontier (bug 1/2 "
         "resurfaced)";
  EXPECT_LT(cluster.pbft_replica(3)->stats().checkpoint_certs_rejected, 5u)
      << "fetcher stuck rejecting legitimate old-epoch certificates";
  EXPECT_TRUE(cluster.check_agreement());
}

// ---------------------------------------------------------------------------
// Remaining ROADMAP scenario: restart of the current primary mid-view-change

class PrimaryMidViewChangeRestart : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PrimaryMidViewChangeRestart, RecoversLivenessWithoutDoubleExecution) {
  ClusterOptions opts;
  opts.kind = GetParam();
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 150;
  opts.topology = sim::lan_topology();
  opts.seed = 57;
  opts.tweak_config = [](ProtocolConfig& config) { config.win = 32; };
  Cluster cluster(std::move(opts));
  cluster.run_for(800'000);  // progress in view 0

  // Crash the view-0 primary plus one backup: the view change the survivors
  // start cannot reach its 2f+1 quorum — the cluster is wedged *mid-view-
  // change* when the primary restarts into it.
  cluster.crash_replica(1);
  cluster.crash_replica(3);
  // Client retry (4s) re-raises the survivors' progress obligation; their
  // progress timers (2s) then start the view change — which stalls short of
  // its 2f+1 quorum with only two replicas alive.
  cluster.run_for(10'000'000);
  EXPECT_GT(cluster.total_view_changes(), 0u) << "view change never started";
  EXPECT_EQ(cluster.replica(2).view(), 0u) << "view change completed early";

  cluster.restart_replica(1);  // the old primary rejoins mid-view-change
  ASSERT_TRUE(cluster.run_until_done(900'000'000)) << "liveness never resumed";
  EXPECT_EQ(cluster.replica(1).runtime_stats().recoveries, 1u);
  EXPECT_GT(cluster.replica(2).view(), 0u) << "no later view took over";
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 150u);
  }
  // No double execution via the reply cache: replicas 2 and 4 lived through
  // the whole run (including the clients' retry storms while wedged) — each
  // of the 300 requests executed at most once on them.
  for (ReplicaId r : {2u, 4u}) {
    EXPECT_LE(cluster.replica(r).runtime_stats().requests_executed, 300u)
        << "replica " << r << " re-executed retried requests";
  }
  // And the sharp form: a replayed duplicate of an executed request is served
  // from the cache, not re-executed.
  ClientId client = cluster.n();  // first client's node id == its ClientId
  const ReplicaHandle& survivor = cluster.replica(2);
  uint64_t executed_before = survivor.runtime_stats().requests_executed;
  Request dup;
  dup.client = client;
  dup.timestamp = 1;
  dup.op = to_bytes("retry-of-first-request");
  cluster.network().inject(client, survivor.node(),
                           make_message(ClientRequestMsg{dup}));
  cluster.run_for(200'000);
  EXPECT_EQ(survivor.runtime_stats().requests_executed, executed_before)
      << "duplicate re-executed instead of being served from cache";
  EXPECT_TRUE(cluster.check_agreement());
}

INSTANTIATE_TEST_SUITE_P(Protocols, PrimaryMidViewChangeRestart,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

// ---------------------------------------------------------------------------
// FastKvService delta state transfer (its snapshots are now chunk-stable)

class FastKvDeltaTransfer : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FastKvDeltaTransfer, BrieflyLaggingReplicaSkipsUnchangedChunks) {
  // FastKvService used to ignore the snapshot chunk hint, silently degrading
  // every delta rejoin to a full fetch. With the sharded paged serializer, a
  // workload cycling few distinct payloads dirties few shards — and a
  // briefly-lagging replica seeds the rest from its local base.
  ClusterOptions opts;
  opts.kind = GetParam();
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 61;
  // Few distinct op payloads => few dirty shards between checkpoints (the
  // shard is chosen by op-content hash).
  opts.op_factory = [](uint64_t i, Rng&) -> Bytes {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "hot-%u", static_cast<unsigned>(i % 8));
    return to_bytes(buf);
  };
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.state_transfer_chunk_size = 512;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'000'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";

  cluster.crash_replica(3);
  SeqNum stable_at_crash = cluster.replica(1).last_stable();
  uint64_t interval = cluster.config().checkpoint_interval();
  for (int i = 0; i < 400; ++i) {
    if (cluster.replica(1).last_stable() >= stable_at_crash + 2 * interval) break;
    cluster.run_for(50'000);
  }
  ASSERT_GE(cluster.replica(1).last_stable(), stable_at_crash + 2 * interval);
  cluster.restart_replica(3);  // disk intact: probes with a delta base

  for (int i = 0; i < 400; ++i) {
    if (cluster.replica(3).runtime_stats().delta_chunks_skipped > 0 &&
        cluster.replica(3).last_stable() > stable_at_crash) {
      break;
    }
    cluster.run_for(50'000);
  }
  const runtime::RuntimeStats& st = cluster.replica(3).runtime_stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_GT(st.delta_chunks_skipped, 0u)
      << "FastKv delta rejoin degraded to a full fetch";
  EXPECT_GT(st.delta_bytes_saved, 0u);
  EXPECT_GT(cluster.replica(3).last_stable(), stable_at_crash);
  EXPECT_EQ(st.state_transfer_invalid_chunks, 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

INSTANTIATE_TEST_SUITE_P(Protocols, FastKvDeltaTransfer,
                         ::testing::Values(ProtocolKind::kSbft,
                                           ProtocolKind::kPbft),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return info.param == ProtocolKind::kSbft ? "Sbft"
                                                                    : "Pbft";
                         });

TEST(FastKvSnapshots, ChunkHintYieldsStableSectionsAndRoundTrips) {
  FastKvService a(/*shards=*/256);  // 4 KiB of shard state
  a.set_snapshot_chunk_hint(512);
  for (int i = 0; i < 100; ++i) {
    a.execute(as_span(to_bytes("op-" + std::to_string(i))));
  }
  Bytes before = a.snapshot();
  ASSERT_EQ(before.size() % 512, 0u) << "sections not page-aligned";

  // Round trip, independent of the restorer's current hint (the page rides
  // in the snapshot header).
  FastKvService b(/*shards=*/256);
  ASSERT_TRUE(b.restore(as_span(before)));
  EXPECT_TRUE(b.state_digest() == a.state_digest());

  // One more op dirties at most two pages: the header (op counter) and the
  // section of the single shard it folded into.
  a.execute(as_span(to_bytes("one-more-op")));
  Bytes after = a.snapshot();
  ASSERT_EQ(after.size(), before.size());
  size_t dirty = 0;
  for (size_t off = 0; off < before.size(); off += 512) {
    if (!std::equal(before.begin() + static_cast<ptrdiff_t>(off),
                    before.begin() + static_cast<ptrdiff_t>(off + 512),
                    after.begin() + static_cast<ptrdiff_t>(off))) {
      ++dirty;
    }
  }
  EXPECT_LE(dirty, 2u) << "a single op dirtied " << dirty << " pages";
  EXPECT_GE(dirty, 1u);
  EXPECT_FALSE(b.state_digest() == a.state_digest());

  // Without a hint (or with tiny state) the flat layout round-trips too.
  FastKvService flat(/*shards=*/8);
  flat.execute(as_span(to_bytes("x")));
  FastKvService flat2(/*shards=*/8);
  ASSERT_TRUE(flat2.restore(as_span(flat.snapshot())));
  EXPECT_TRUE(flat2.state_digest() == flat.state_digest());
}

// ---------------------------------------------------------------------------
// PBFT malicious-donor checkpoint trust (the quorum certificate bugfix)

TEST(PbftMaliciousDonor, FabricatedCheckpointNeedsQuorumCertificate) {
  // A single faulty donor fabricates a root-consistent checkpoint far ahead
  // of the cluster. Its manifest carries only its own checkpoint signature,
  // short of the weak certificate's f+1, so the wiped fetcher rejects it and
  // lands on the honest checkpoint.
  ClusterOptions opts;
  opts.kind = ProtocolKind::kPbft;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 67;
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  KvWorkloadOptions kv;
  kv.value_size = 256;
  kv.key_space = 1024;
  opts.op_factory = kv_op_factory(kv);
  opts.fabricate_checkpoint_replicas = {2};
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'500'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";
  uint64_t interval = cluster.config().checkpoint_interval();

  cluster.crash_replica(4);
  cluster.run_for(300'000);
  cluster.restart_replica(4, /*wipe_storage=*/true);
  for (int i = 0; i < 600; ++i) {
    if (cluster.replica(4).last_stable() > 0) break;
    cluster.run_for(50'000);
  }
  ASSERT_GT(cluster.replica(4).last_stable(), 0u) << "wiped replica adopted nothing";

  SeqNum honest = cluster.replica(1).last_stable();
  EXPECT_LE(cluster.replica(4).last_stable(), honest + interval)
      << "fabricated checkpoint adopted";
  EXPECT_GT(cluster.pbft_replica(4)->stats().checkpoint_certs_rejected, 0u)
      << "the fabricated manifest was never rejected";
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness
