#include <gtest/gtest.h>

#include "common/serde.h"
#include "harness/workload.h"
#include "kv/kv_service.h"

namespace sbft::kv {
namespace {

TEST(KvOps, EncodeDecodePut) {
  Bytes op = encode_put(as_span("k"), as_span("v"));
  auto decoded = decode_op(as_span(op));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, OpType::kPut);
  EXPECT_EQ(decoded->key, to_bytes("k"));
  EXPECT_EQ(decoded->value, to_bytes("v"));
}

TEST(KvOps, DecodeRejectsGarbage) {
  Bytes bad = {0x09, 0x01};
  EXPECT_FALSE(decode_op(as_span(bad)).has_value());
  EXPECT_FALSE(decode_op(ByteSpan{}).has_value());
}

TEST(KvService, PutGetDelete) {
  KvService svc;
  EXPECT_EQ(svc.execute(as_span(encode_put(as_span("k"), as_span("v1")))),
            to_bytes("OK"));
  EXPECT_EQ(svc.execute(as_span(encode_get(as_span("k")))), to_bytes("v1"));
  EXPECT_EQ(svc.execute(as_span(encode_put(as_span("k"), as_span("v2")))),
            to_bytes("OK"));
  EXPECT_EQ(svc.execute(as_span(encode_get(as_span("k")))), to_bytes("v2"));
  EXPECT_EQ(svc.execute(as_span(encode_delete(as_span("k")))), to_bytes("OK"));
  EXPECT_TRUE(svc.execute(as_span(encode_get(as_span("k")))).empty());
}

TEST(KvService, DigestTracksState) {
  KvService a, b;
  EXPECT_EQ(a.state_digest(), b.state_digest());
  a.execute(as_span(encode_put(as_span("k"), as_span("v"))));
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.execute(as_span(encode_put(as_span("k"), as_span("v"))));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(KvService, DigestOrderIndependentForDisjointKeys) {
  KvService a, b;
  a.put(as_span("x"), as_span("1"));
  a.put(as_span("y"), as_span("2"));
  b.put(as_span("y"), as_span("2"));
  b.put(as_span("x"), as_span("1"));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(KvService, SnapshotRestoreRoundTrip) {
  KvService a;
  for (int i = 0; i < 50; ++i) {
    a.put(as_span(to_bytes("key" + std::to_string(i))),
          as_span(to_bytes("value" + std::to_string(i))));
  }
  Bytes snap = a.snapshot();
  KvService b;
  ASSERT_TRUE(b.restore(as_span(snap)));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.get(as_span("key7")), to_bytes("value7"));
  EXPECT_EQ(b.size(), 50u);
}

TEST(KvService, RestoreRejectsMalformed) {
  KvService svc;
  Bytes garbage = {1, 2, 3};
  EXPECT_FALSE(svc.restore(as_span(garbage)));
}

TEST(KvService, RestoreReplacesWhatTheStoreHeld) {
  KvService source;
  for (int i = 0; i < 40; ++i) {
    source.put(as_span(to_bytes("key" + std::to_string(i))),
               as_span(to_bytes("value" + std::to_string(i))));
  }
  Bytes snap = source.snapshot();

  // The target holds keys the snapshot lacks, and one of its keys with
  // another value: restoring leaves exactly the snapshot's contents.
  KvService target;
  for (int i = 0; i < 30; ++i) {
    target.put(as_span(to_bytes("other" + std::to_string(i))), as_span("x"));
  }
  target.put(as_span("key3"), as_span("stale"));
  ASSERT_TRUE(target.restore(as_span(snap)));
  EXPECT_EQ(target.state_digest(), source.state_digest());
  EXPECT_EQ(target.size(), source.size());
  EXPECT_EQ(target.snapshot(), snap);
  EXPECT_FALSE(target.get(as_span("other0")).has_value());
  EXPECT_EQ(target.get(as_span("key3")), to_bytes("value3"));
}

TEST(KvService, FailedRestoreKeepsThePreviousStore) {
  // Snapshots in the compact layout (page 1): magic, page, entry count, then
  // sections of a count and that many key/value pairs.
  auto snapshot_of = [](uint64_t entry_count,
                        const std::vector<std::vector<std::string>>& sections) {
    Writer w;
    w.raw(as_span("SBFTKVP2"));
    w.u32(1);
    w.u64(entry_count);
    for (const auto& section : sections) {
      w.u32(static_cast<uint32_t>(section.size() / 2));
      for (const std::string& part : section) w.bytes(as_span(part));
    }
    return std::move(w).take();
  };
  // The hand-built layout itself restores.
  KvService control;
  ASSERT_TRUE(control.restore(as_span(snapshot_of(2, {{"a", "1", "b", "2"}}))));
  EXPECT_EQ(control.get(as_span("b")), to_bytes("2"));

  KvService svc;
  for (int i = 0; i < 20; ++i) {
    svc.put(as_span(to_bytes("key" + std::to_string(i))), as_span("v"));
  }
  const Digest root = svc.state_digest();
  const Bytes before = svc.snapshot();
  const std::vector<Bytes> bad = {
      snapshot_of(2, {{"a", "1", "a", "2"}}),  // a duplicate key
      snapshot_of(3, {{"a", "1", "b", "2"}}),  // more entries claimed than held
      snapshot_of(1, {{"a", "1", "b", "2"}}),  // fewer entries claimed than held
  };
  for (const Bytes& snap : bad) {
    EXPECT_FALSE(svc.restore(as_span(snap)));
    EXPECT_EQ(svc.state_digest(), root);
    EXPECT_EQ(svc.size(), 20u);
    EXPECT_EQ(svc.snapshot(), before);
    EXPECT_EQ(svc.get(as_span("key7")), to_bytes("v"));
  }
}

TEST(KvService, ProofsAgainstStateDigest) {
  KvService svc;
  svc.put(as_span("alpha"), as_span("1"));
  svc.put(as_span("beta"), as_span("2"));
  Digest root = svc.state_digest();
  EXPECT_TRUE(KvService::verify(root, as_span("alpha"), to_bytes("1"),
                                svc.prove(as_span("alpha"))));
  EXPECT_FALSE(KvService::verify(root, as_span("alpha"), to_bytes("9"),
                                 svc.prove(as_span("alpha"))));
  // Non-membership.
  EXPECT_TRUE(KvService::verify(root, as_span("gamma"), std::nullopt,
                                svc.prove(as_span("gamma"))));
}

TEST(KvService, BatchOpExecutesAll) {
  KvService svc;
  std::vector<Bytes> ops;
  for (int i = 0; i < 64; ++i) {
    ops.push_back(encode_put(as_span(to_bytes("k" + std::to_string(i))),
                             as_span(to_bytes("v" + std::to_string(i)))));
  }
  svc.execute(as_span(encode_batch(ops)));
  EXPECT_EQ(svc.size(), 64u);
  EXPECT_EQ(svc.get(as_span("k63")), to_bytes("v63"));
  sim::CostModel costs;
  EXPECT_EQ(svc.last_execute_cost_us(costs), 64 * costs.kv_op_us);
}

TEST(KvService, MalformedOpReturnsError) {
  KvService svc;
  Bytes bad = {0x42};
  EXPECT_EQ(svc.execute(as_span(bad)), to_bytes("ERR:malformed"));
}

// A batch is flat and is decoded whole before any sub-op runs: whatever is
// wrong with it, it returns ERR:malformed, applies nothing and is charged as
// one op.
void expect_rejected_batch(const Bytes& op) {
  KvService svc;
  Digest empty = svc.state_digest();
  EXPECT_EQ(svc.execute(as_span(op)), to_bytes("ERR:malformed"));
  EXPECT_EQ(svc.size(), 0u);
  EXPECT_EQ(svc.state_digest(), empty);
  sim::CostModel costs;
  EXPECT_EQ(svc.last_execute_cost_us(costs), costs.kv_op_us);
}

TEST(KvService, NestedBatchIsRejectedAndAppliesNothing) {
  Bytes put_a = encode_put(as_span("a"), as_span("1"));
  Bytes put_b = encode_put(as_span("b"), as_span("2"));
  expect_rejected_batch(encode_batch({put_a, encode_batch({put_b})}));
}

TEST(KvService, TruncatedOrTrailingBatchChangesNothing) {
  Bytes put_a = encode_put(as_span("a"), as_span("1"));
  // Three sub-ops declared: one complete put, then half a length.
  Writer truncated;
  truncated.u8(static_cast<uint8_t>(OpType::kBatch));
  truncated.u32(3);
  truncated.bytes(as_span(put_a));
  truncated.u16(9);
  expect_rejected_batch(std::move(truncated).take());

  Bytes trailing = encode_batch({put_a});
  trailing.push_back(0);
  expect_rejected_batch(trailing);

  Bytes garbage = {0x09, 0x01};
  expect_rejected_batch(encode_batch({put_a, garbage}));
}

TEST(KvService, OversizedBatchCountIsChargedOneOp) {
  // Nine bytes that declare a million sub-ops and hold one empty one.
  Writer w;
  w.u8(static_cast<uint8_t>(OpType::kBatch));
  w.u32(1'000'000);
  w.u32(0);
  expect_rejected_batch(std::move(w).take());
}

TEST(KvService, DeeplyNestedBatchIsRejectedWithoutRecursion) {
  // 100,000 one-op batches, each wrapping the next, around one put; built
  // in one pass (each level adds a 9-byte header: tag, count, length).
  constexpr uint32_t kLevels = 100'000;
  Bytes put = encode_put(as_span("k"), as_span("v"));
  Writer w;
  for (uint32_t level = kLevels; level > 0; --level) {
    w.u8(static_cast<uint8_t>(OpType::kBatch));
    w.u32(1);
    w.u32(static_cast<uint32_t>(9 * (level - 1) + put.size()));
  }
  w.raw(as_span(put));
  expect_rejected_batch(std::move(w).take());
}

TEST(KvService, CloneEmptyIsFresh) {
  KvService svc;
  svc.put(as_span("k"), as_span("v"));
  auto fresh = svc.clone_empty();
  EXPECT_NE(fresh->state_digest(), svc.state_digest());
}

TEST(FastKvService, DeterministicDigest) {
  harness::FastKvService a, b;
  EXPECT_EQ(a.state_digest(), b.state_digest());
  Bytes op = encode_put(as_span("k"), as_span("v"));
  a.execute(as_span(op));
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.execute(as_span(op));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(FastKvService, DivergentHistoriesDiverge) {
  harness::FastKvService a, b;
  a.execute(as_span(encode_put(as_span("k"), as_span("1"))));
  b.execute(as_span(encode_put(as_span("k"), as_span("2"))));
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(FastKvService, SnapshotRestore) {
  harness::FastKvService a;
  for (int i = 0; i < 10; ++i) {
    a.execute(as_span(encode_put(as_span("k"), as_span(std::to_string(i)))));
  }
  harness::FastKvService b;
  ASSERT_TRUE(b.restore(as_span(a.snapshot())));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(FastKvService, BatchCostReporting) {
  harness::FastKvService svc;
  std::vector<Bytes> ops(64, encode_put(as_span("k"), as_span("v")));
  svc.execute(as_span(encode_batch(ops)));
  sim::CostModel costs;
  EXPECT_EQ(svc.last_execute_cost_us(costs), 64 * costs.kv_op_us);
}

TEST(KvWorkload, GeneratesValidOps) {
  auto factory = harness::kv_op_factory({});
  Rng rng(1);
  KvService svc;
  for (int i = 0; i < 20; ++i) {
    Bytes op = factory(static_cast<uint64_t>(i), rng);
    EXPECT_EQ(svc.execute(as_span(op)), to_bytes("OK"));
  }
  EXPECT_GT(svc.size(), 0u);
}

TEST(KvWorkload, BatchModeGenerates64Ops) {
  harness::KvWorkloadOptions opts;
  opts.ops_per_request = 64;
  auto factory = harness::kv_op_factory(opts);
  Rng rng(2);
  Bytes op = factory(0, rng);
  KvService svc;
  svc.execute(as_span(op));
  sim::CostModel costs;
  EXPECT_EQ(svc.last_execute_cost_us(costs), 64 * costs.kv_op_us);
}

}  // namespace
}  // namespace sbft::kv
