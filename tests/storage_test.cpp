#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "storage/ledger_storage.h"

namespace sbft::storage {
namespace {

class TempFile {
 public:
  TempFile() {
    path_ = (std::filesystem::temp_directory_path() /
             ("sbft-ledger-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter_++)))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// The bytes of the record stored at `s`, or nullopt when there is none.
std::optional<Bytes> stored(const ILedgerStorage& ledger, SeqNum s) {
  auto record = ledger.read_block(s);
  if (!record) return std::nullopt;
  return *record;
}

TEST(MemoryLedger, AppendAndRead) {
  MemoryLedgerStorage ledger;
  ledger.append_block(1, as_span(to_bytes("block-1")));
  ledger.append_block(2, as_span(to_bytes("block-2")));
  EXPECT_EQ(ledger.block_count(), 2u);
  EXPECT_EQ(ledger.last_seq(), 2u);
  EXPECT_EQ(stored(ledger, 1), to_bytes("block-1"));
  EXPECT_EQ(ledger.read_block(3), nullptr);
}

TEST(MemoryLedger, DuplicateAppendIgnored) {
  MemoryLedgerStorage ledger;
  ledger.append_block(1, as_span(to_bytes("original")));
  ledger.append_block(1, as_span(to_bytes("overwrite-attempt")));
  EXPECT_EQ(stored(ledger, 1), to_bytes("original"));
  EXPECT_EQ(ledger.block_count(), 1u);
}

TEST(MemoryLedger, KeepsAppendedRecordByReference) {
  MemoryLedgerStorage ledger;
  auto record = std::make_shared<const Bytes>(to_bytes("shared"));
  ledger.append_block(1, record);
  // The same buffer, not an equal copy.
  EXPECT_EQ(ledger.read_block(1), record);
  // A plain span is copied into a fresh record.
  const Bytes plain = to_bytes("plain");
  ledger.append_block(2, as_span(plain));
  auto copied = ledger.read_block(2);
  ASSERT_NE(copied, nullptr);
  EXPECT_NE(copied->data(), plain.data());
  EXPECT_EQ(*copied, plain);
}

TEST(MemoryLedger, EmptyState) {
  MemoryLedgerStorage ledger;
  EXPECT_EQ(ledger.last_seq(), 0u);
  EXPECT_EQ(ledger.block_count(), 0u);
}

TEST(FileLedger, AppendAndRead) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  ledger.append_block(1, as_span(to_bytes("alpha")));
  ledger.append_block(5, as_span(to_bytes("beta")));
  EXPECT_EQ(stored(ledger, 1), to_bytes("alpha"));
  EXPECT_EQ(stored(ledger, 5), to_bytes("beta"));
  EXPECT_EQ(ledger.last_seq(), 5u);
}

TEST(FileLedger, DuplicateAppendIgnored) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  ledger.append_block(1, as_span(to_bytes("original")));
  ledger.append_block(1, as_span(to_bytes("overwrite-attempt")));
  EXPECT_EQ(stored(ledger, 1), to_bytes("original"));
  EXPECT_EQ(ledger.block_count(), 1u);
}

TEST(FileLedger, SurvivesReopen) {
  TempFile tmp;
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(1, as_span(to_bytes("persisted")));
    ledger.append_block(2, as_span(to_bytes("also persisted")));
    ledger.sync();
  }
  FileLedgerStorage reopened(tmp.path());
  EXPECT_EQ(reopened.block_count(), 2u);
  EXPECT_EQ(stored(reopened, 1), to_bytes("persisted"));
  EXPECT_EQ(stored(reopened, 2), to_bytes("also persisted"));
}

TEST(FileLedger, EmptyPayloadAllowed) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  ledger.append_block(3, ByteSpan{});
  auto blk = ledger.read_block(3);
  ASSERT_NE(blk, nullptr);
  EXPECT_TRUE(blk->empty());
}

TEST(FileLedger, TruncatedTailHeaderIsDiscarded) {
  // A crash mid-append can leave a partial header; reopen must index only the
  // complete records and land the next append on a record boundary.
  TempFile tmp;
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(1, as_span(to_bytes("one")));
    ledger.append_block(2, as_span(to_bytes("two")));
    ledger.sync();
  }
  {
    std::FILE* f = std::fopen(tmp.path().c_str(), "ab");
    const uint8_t garbage[5] = {0x03, 0, 0, 0, 0};  // 5 of 12 header bytes
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  FileLedgerStorage reopened(tmp.path());
  EXPECT_EQ(reopened.block_count(), 2u);
  EXPECT_EQ(reopened.last_seq(), 2u);
  EXPECT_EQ(stored(reopened, 1), to_bytes("one"));
  // Appends after the truncation parse cleanly on the next open.
  reopened.append_block(3, as_span(to_bytes("three")));
  reopened.sync();
  FileLedgerStorage again(tmp.path());
  EXPECT_EQ(again.block_count(), 3u);
  EXPECT_EQ(stored(again, 3), to_bytes("three"));
}

TEST(FileLedger, TruncatedTailPayloadIsDiscarded) {
  // Header fully written but the payload cut short: the record must not be
  // indexed (its bytes are garbage) and must be truncated away.
  TempFile tmp;
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(1, as_span(to_bytes("complete")));
    ledger.append_block(2, as_span(to_bytes("this-payload-gets-cut")));
    ledger.sync();
  }
  auto size = std::filesystem::file_size(tmp.path());
  std::filesystem::resize_file(tmp.path(), size - 4);
  FileLedgerStorage reopened(tmp.path());
  EXPECT_EQ(reopened.block_count(), 1u);
  EXPECT_EQ(reopened.last_seq(), 1u);
  EXPECT_EQ(stored(reopened, 1), to_bytes("complete"));
  EXPECT_EQ(reopened.read_block(2), nullptr);
  // Re-appending sequence 2 works and survives another reopen.
  reopened.append_block(2, as_span(to_bytes("rewritten")));
  reopened.sync();
  FileLedgerStorage again(tmp.path());
  EXPECT_EQ(again.block_count(), 2u);
  EXPECT_EQ(stored(again, 2), to_bytes("rewritten"));
}

TEST(FileLedger, LargeBlock) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  Bytes big(1 << 18, 0x5a);
  ledger.append_block(7, as_span(big));
  EXPECT_EQ(stored(ledger, 7), big);
}

}  // namespace
}  // namespace sbft::storage
