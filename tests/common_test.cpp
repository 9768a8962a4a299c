#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/serde.h"

namespace sbft {
namespace {

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(as_span(data)), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex(ByteSpan{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, UpperCaseAccepted) { EXPECT_EQ(from_hex("AB"), Bytes{0xab}); }

TEST(Hex, RejectsOddLength) { EXPECT_THROW(from_hex("abc"), std::invalid_argument); }

TEST(Hex, RejectsBadDigit) { EXPECT_THROW(from_hex("zz"), std::invalid_argument); }

TEST(DigestEqual, DetectsDifference) {
  Digest a{};
  Digest b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Fnv, StableAndSensitive) {
  Bytes a = to_bytes("hello");
  Bytes b = to_bytes("hellp");
  EXPECT_EQ(fnv1a(as_span(a)), fnv1a(as_span(a)));
  EXPECT_NE(fnv1a(as_span(a)), fnv1a(as_span(b)));
}

TEST(ByteList, InsertKeepsEachStringAndItsPlace) {
  ByteList list;
  list.push_back(as_span("bb"));
  list.insert(0, as_span("a"));
  list.push_back(as_span(""));
  list.insert(2, as_span("cccc"));
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(to_bytes(list[0]), to_bytes("a"));
  EXPECT_EQ(to_bytes(list[1]), to_bytes("bb"));
  EXPECT_EQ(to_bytes(list[2]), to_bytes("cccc"));
  EXPECT_TRUE(list[3].empty());
  EXPECT_EQ(list.bytes(), to_bytes("abbcccc"));
  EXPECT_EQ(list.ends(), (std::vector<uint32_t>{1, 3, 7, 7}));
}

TEST(ByteList, ShrinkToFitLeavesNoSpareCapacity) {
  ByteList list;
  list.reserve(8);
  for (int i = 0; i < 5; ++i) list.push_back(as_span(std::string(i, 'x')));
  const ByteList before = list;
  list.shrink_to_fit();
  EXPECT_EQ(list, before);
  EXPECT_EQ(list.bytes().capacity(), list.bytes().size());
  EXPECT_EQ(list.ends().capacity(), 5u);
}

TEST(Serde, IntegersRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.boolean(true);
  Reader r(as_span(w.data()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, FlagIsZeroOrOne) {
  // The membership, EVM-result and tx-manager decoders read their flags
  // here: a byte above 1 latches failure instead of reading as true.
  const Bytes bytes{0, 1, 2};
  Reader r(as_span(bytes));
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.boolean());
  EXPECT_FALSE(r.ok());
}

TEST(Serde, BytesAndStringsRoundTrip) {
  Writer w;
  w.bytes(as_span(to_bytes("payload")));
  w.str("name");
  Digest d{};
  d[0] = 7;
  w.digest(d);
  Reader r(as_span(w.data()));
  EXPECT_EQ(r.bytes(), to_bytes("payload"));
  EXPECT_EQ(r.str(), "name");
  EXPECT_EQ(r.digest(), d);
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, UnderflowLatchesFailure) {
  Writer w;
  w.u8(1);
  Reader r(as_span(w.data()));
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u32(), 0u);  // underflow
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.at_end());
}

TEST(Serde, TruncatedLengthPrefix) {
  Writer w;
  w.u32(100);  // claims 100 bytes, provides none
  Reader r(as_span(w.data()));
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkIndependent) {
  Rng a(7);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

}  // namespace
}  // namespace sbft
