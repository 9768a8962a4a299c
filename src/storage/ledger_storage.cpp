#include "storage/ledger_storage.h"

#include <unistd.h>

#include <stdexcept>

#include "common/check.h"

namespace sbft::storage {

void ILedgerStorage::append_block(SeqNum s, ByteSpan encoded) {
  append_block(s, std::make_shared<const Bytes>(to_bytes(encoded)));
}

void MemoryLedgerStorage::append_block(SeqNum s,
                                       std::shared_ptr<const Bytes> record) {
  SBFT_CHECK(record != nullptr);
  blocks_.emplace(s, std::move(record));
}

std::shared_ptr<const Bytes> MemoryLedgerStorage::read_block(SeqNum s) const {
  auto it = blocks_.find(s);
  return it == blocks_.end() ? nullptr : it->second;
}

SeqNum MemoryLedgerStorage::last_seq() const {
  return blocks_.empty() ? 0 : blocks_.rbegin()->first;
}

FileLedgerStorage::FileLedgerStorage(const std::string& path) : path_(path) {
  // Open for read/append, creating if needed.
  file_ = std::fopen(path.c_str(), "ab+");
  if (!file_) throw std::runtime_error("FileLedgerStorage: cannot open " + path);
  load_index();
}

FileLedgerStorage::~FileLedgerStorage() {
  if (file_) std::fclose(file_);
}

void FileLedgerStorage::load_index() {
  // A crash can leave a torn tail record (partial header or payload). Index
  // only complete records and truncate the tail away so the next append lands
  // at a record boundary instead of extending the garbage.
  std::fseek(file_, 0, SEEK_END);
  long file_size = std::ftell(file_);
  std::rewind(file_);
  long good_end = 0;
  for (;;) {
    uint8_t header[12];
    long offset = std::ftell(file_);
    if (offset + static_cast<long>(sizeof(header)) > file_size) break;
    if (std::fread(header, 1, sizeof(header), file_) != sizeof(header)) break;
    SeqNum s = 0;
    for (int i = 0; i < 8; ++i) s |= static_cast<SeqNum>(header[i]) << (8 * i);
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(header[8 + i]) << (8 * i);
    if (offset + 12 + static_cast<long>(len) > file_size) break;  // torn payload
    index_[s] = {offset + 12, len};
    good_end = offset + 12 + static_cast<long>(len);
    if (std::fseek(file_, static_cast<long>(len), SEEK_CUR) != 0) break;
  }
  if (good_end < file_size) {
    std::fflush(file_);
    if (::ftruncate(fileno(file_), good_end) != 0) {
      throw std::runtime_error("FileLedgerStorage: cannot truncate torn tail of " +
                               path_);
    }
  }
  // Re-sync the write offset to the (possibly truncated) end so appends start
  // on a record boundary.
  std::fseek(file_, good_end, SEEK_SET);
}

void FileLedgerStorage::append_block(SeqNum s,
                                     std::shared_ptr<const Bytes> record) {
  SBFT_CHECK(record != nullptr);
  if (index_.count(s)) return;  // immutable records: duplicate appends ignored
  const Bytes& encoded = *record;
  std::fseek(file_, 0, SEEK_END);
  long offset = std::ftell(file_);
  uint8_t header[12];
  for (int i = 0; i < 8; ++i) header[i] = static_cast<uint8_t>(s >> (8 * i));
  uint32_t len = static_cast<uint32_t>(encoded.size());
  for (int i = 0; i < 4; ++i) header[8 + i] = static_cast<uint8_t>(len >> (8 * i));
  SBFT_CHECK(std::fwrite(header, 1, sizeof(header), file_) == sizeof(header));
  if (len > 0)
    SBFT_CHECK(std::fwrite(encoded.data(), 1, encoded.size(), file_) == encoded.size());
  index_[s] = {offset + 12, len};
}

std::shared_ptr<const Bytes> FileLedgerStorage::read_block(SeqNum s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return nullptr;
  std::FILE* f = file_;
  std::fflush(f);
  if (std::fseek(f, it->second.first, SEEK_SET) != 0) return nullptr;
  Bytes out(it->second.second);
  if (!out.empty() && std::fread(out.data(), 1, out.size(), f) != out.size())
    return nullptr;
  std::fseek(f, 0, SEEK_END);
  return std::make_shared<const Bytes>(std::move(out));
}

SeqNum FileLedgerStorage::last_seq() const {
  return index_.empty() ? 0 : index_.rbegin()->first;
}

void FileLedgerStorage::sync() { std::fflush(file_); }

}  // namespace sbft::storage
