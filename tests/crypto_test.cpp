#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sbft::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(as_span(sha256(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(as_span(sha256("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(as_span(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(as_span(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<uint8_t>(i));
  Digest whole = sha256(as_span(data));
  for (size_t split : {1ul, 17ul, 63ul, 64ul, 65ul, 299ul}) {
    Sha256 h;
    h.update(ByteSpan{data.data(), split});
    h.update(ByteSpan{data.data() + split, data.size() - split});
    EXPECT_EQ(h.finish(), whole) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundary) {
  std::string msg(64, 'x');
  Digest a = sha256(msg);
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(h.finish(), a);
}

TEST(Sha256, PaddingLengthsKnownAnswers) {
  // "a" * len around the padding boundaries: 55 and 119 bytes leave room for
  // the length field in the last block, 56 and 120 need one more block.
  // Digests from Python's hashlib.
  const std::pair<size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(to_hex(as_span(sha256(std::string(len, 'a')))), hex) << "length " << len;
  }
}

TEST(Sha256, ByteAtATimeMatchesOneShotAtEveryLength) {
  Bytes data;
  for (size_t len = 0; len <= 300; ++len) {
    Sha256 h;
    for (uint8_t byte : data) h.update(ByteSpan{&byte, 1});
    EXPECT_EQ(h.finish(), sha256(as_span(data))) << "length " << len;
    data.push_back(static_cast<uint8_t>(len * 131 + 7));
  }
}

TEST(Sha256, ConcatHelper) {
  Bytes a = to_bytes("foo");
  Bytes b = to_bytes("bar");
  EXPECT_EQ(sha256_concat(as_span(a), as_span(b)), sha256("foobar"));
}

TEST(Sha256, ResetReuses) {
  Sha256 h;
  h.update("abc");
  Digest first = h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finish(), first);
}

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(as_span(hmac_sha256(as_span(key), as_span("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(as_span(hmac_sha256(
                as_span("Jefe"), as_span("what do ya want for nothing?")))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(as_span(hmac_sha256(as_span(key), as_span(msg)))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyHashedDown) {
  // RFC 4231 case 6: 131-byte key.
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(as_span(hmac_sha256(
                as_span(key),
                as_span("Test Using Larger Than Block-Size Key - Hash Key First")))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, FragmentsEqualConcatenation) {
  Bytes key = to_bytes("k");
  Digest split = hmac_sha256(as_span(key), {as_span("ab"), as_span("cd")});
  Digest whole = hmac_sha256(as_span(key), as_span("abcd"));
  EXPECT_EQ(split, whole);
}

TEST(Hmac, KeySensitivity) {
  EXPECT_NE(hmac_sha256(as_span("k1"), as_span("m")),
            hmac_sha256(as_span("k2"), as_span("m")));
}

}  // namespace
}  // namespace sbft::crypto
