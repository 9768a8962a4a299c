// Ledger persistence (§VIII: the paper persists the blockchain through
// RocksDB; paper substitution 4 in docs/architecture.md uses an append-only
// log instead). Replicas write each
// committed decision block; the file-backed implementation exercises a real
// disk path in examples/tests, while the simulator charges persistence cost
// through the cost model.
//
// A record is an immutable, refcounted buffer. The memory ledger keeps the
// appended record by reference, so the replicas of one simulated cluster
// that execute the same block store one buffer (SealedBlock::ledger_record)
// between them, each in its own ledger object. The file ledger writes the
// record's bytes.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"

namespace sbft::storage {

using SeqNum = uint64_t;

class ILedgerStorage {
 public:
  virtual ~ILedgerStorage() = default;
  /// Persists the record (the encoded decision block) at sequence `s`
  /// (idempotent: records are immutable once stored).
  virtual void append_block(SeqNum s, std::shared_ptr<const Bytes> record) = 0;
  /// Copies `encoded` into a fresh record and appends it.
  void append_block(SeqNum s, ByteSpan encoded);
  /// The record stored at `s`, or null.
  virtual std::shared_ptr<const Bytes> read_block(SeqNum s) const = 0;
  /// Highest sequence number stored, or 0 if empty.
  virtual SeqNum last_seq() const = 0;
  virtual uint64_t block_count() const = 0;
  /// Flushes buffered writes to stable storage.
  virtual void sync() {}
};

class MemoryLedgerStorage final : public ILedgerStorage {
 public:
  using ILedgerStorage::append_block;
  void append_block(SeqNum s, std::shared_ptr<const Bytes> record) override;
  std::shared_ptr<const Bytes> read_block(SeqNum s) const override;
  SeqNum last_seq() const override;
  uint64_t block_count() const override { return blocks_.size(); }

 private:
  std::map<SeqNum, std::shared_ptr<const Bytes>> blocks_;
};

/// Append-only file of [u64 seq][u32 len][payload] records with an in-memory
/// offset index rebuilt on open. Re-appending an existing sequence number is
/// a no-op (records are immutable once written).
class FileLedgerStorage final : public ILedgerStorage {
 public:
  explicit FileLedgerStorage(const std::string& path);
  ~FileLedgerStorage() override;

  FileLedgerStorage(const FileLedgerStorage&) = delete;
  FileLedgerStorage& operator=(const FileLedgerStorage&) = delete;

  using ILedgerStorage::append_block;
  void append_block(SeqNum s, std::shared_ptr<const Bytes> record) override;
  std::shared_ptr<const Bytes> read_block(SeqNum s) const override;
  SeqNum last_seq() const override;
  uint64_t block_count() const override { return index_.size(); }
  void sync() override;

 private:
  void load_index();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::map<SeqNum, std::pair<long, uint32_t>> index_;  // seq -> (offset, len)
};

}  // namespace sbft::storage
