#include "recovery/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/serde.h"

namespace sbft::recovery {

namespace {

constexpr char kMagic[8] = {'S', 'B', 'F', 'T', 'W', 'A', 'L', '\x01'};

enum RecordType : uint8_t {
  kView = 1,
  kVote = 2,
  kCheckpoint = 3,
};

Bytes encode_view(ViewNum view) {
  Writer w;
  w.u64(view);
  return std::move(w).take();
}

Bytes encode_vote(SeqNum seq, ViewNum view, const Digest& block_digest) {
  Writer w;
  w.u64(seq);
  w.u64(view);
  w.digest(block_digest);
  return std::move(w).take();
}

/// A checkpoint record's payload is [u32 len][certificate][u32 len][snapshot];
/// this is all of it but the snapshot bytes, so the envelope is written from
/// its own buffer instead of a copy.
Bytes checkpoint_head(const ExecCertificate& cert, size_t snapshot_size) {
  Writer w;
  w.bytes(as_span(encode_exec_certificate(cert)));
  w.u32(static_cast<uint32_t>(snapshot_size));
  return std::move(w).take();
}

/// The checkpoint supersedes the previous one and the votes at or below it.
void apply_checkpoint(WalState& state, const ExecCertificate& cert,
                      std::shared_ptr<const Bytes> snapshot) {
  state.checkpoint = cert;
  state.last_stable = cert.seq;
  state.snapshot = std::move(snapshot);
  state.votes.erase(std::remove_if(state.votes.begin(), state.votes.end(),
                                   [&](const WalVote& v) {
                                     return v.seq <= state.last_stable;
                                   }),
                    state.votes.end());
}

/// Writes one [u32 len][u8 type][payload] frame whose payload is `parts`
/// back to back; returns the frame's size.
uint64_t write_frame(std::FILE* file, uint8_t type,
                     std::initializer_list<ByteSpan> parts) {
  uint64_t len = 1;
  for (ByteSpan p : parts) len += p.size();
  Writer header;
  header.u32(static_cast<uint32_t>(len));
  header.u8(type);
  SBFT_CHECK(std::fwrite(header.data().data(), 1, header.size(), file) ==
             header.size());
  for (ByteSpan p : parts) {
    SBFT_CHECK(std::fwrite(p.data(), 1, p.size(), file) == p.size());
  }
  return header.size() + len - 1;
}

/// Applies one record read back from the file to the logical state. Returns
/// false on a malformed payload.
bool apply_record(WalState& state, uint8_t type, ByteSpan payload) {
  Reader r(payload);
  switch (type) {
    case kView: {
      ViewNum v = r.u64();
      if (!r.at_end()) return false;
      state.view = std::max(state.view, v);
      return true;
    }
    case kVote: {
      WalVote vote;
      vote.seq = r.u64();
      vote.view = r.u64();
      vote.block_digest = r.digest();
      if (!r.at_end()) return false;
      state.votes.push_back(vote);
      return true;
    }
    case kCheckpoint: {
      ByteSpan cert_bytes = r.span();
      ByteSpan snapshot = r.span();
      if (!r.at_end()) return false;
      auto cert = decode_exec_certificate(cert_bytes);
      if (!cert) return false;
      apply_checkpoint(state, *cert, std::make_shared<const Bytes>(to_bytes(snapshot)));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

void IReplicaWal::record_checkpoint(const ExecCertificate& cert, ByteSpan snapshot) {
  record_checkpoint(cert, std::make_shared<const Bytes>(to_bytes(snapshot)));
}

// ---------------------------------------------------------------------------
// MemoryWal

void MemoryWal::record_view(ViewNum view) {
  bytes_written_ += 1 + encode_view(view).size();
  state_.view = std::max(state_.view, view);
}

void MemoryWal::record_vote(SeqNum seq, ViewNum view, const Digest& block_digest) {
  bytes_written_ += 1 + encode_vote(seq, view, block_digest).size();
  state_.votes.push_back({seq, view, block_digest});
}

void MemoryWal::record_checkpoint(const ExecCertificate& cert,
                                  std::shared_ptr<const Bytes> snapshot) {
  SBFT_CHECK(snapshot != nullptr);
  bytes_written_ += 1 + checkpoint_head(cert, snapshot->size()).size() + snapshot->size();
  apply_checkpoint(state_, cert, std::move(snapshot));
}

// ---------------------------------------------------------------------------
// FileWal

FileWal::FileWal(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab+");
  if (!file_) throw std::runtime_error("FileWal: cannot open " + path);
  // Truncate a torn tail record (crash mid-append) so new appends land on a
  // record boundary instead of extending the garbage. A file whose magic
  // itself is short or corrupt restarts as a fresh log — the magic must be
  // rewritten, or every future append would sit after a headerless prefix,
  // invisible to load() and destroyed on the next open.
  long valid = scan(&state_);
  std::fseek(file_, 0, SEEK_END);
  if (valid < std::ftell(file_)) {
    SBFT_CHECK(::ftruncate(fileno(file_), valid) == 0);
    std::fseek(file_, 0, SEEK_END);
  }
  if (valid == 0) {
    state_ = WalState{};
    SBFT_CHECK(std::fwrite(kMagic, 1, sizeof(kMagic), file_) == sizeof(kMagic));
    std::fflush(file_);
    valid = sizeof(kMagic);
  }
  file_bytes_ = static_cast<uint64_t>(valid);
}

FileWal::~FileWal() {
  if (file_) std::fclose(file_);
}

void FileWal::append_record(uint8_t type, std::initializer_list<ByteSpan> parts) {
  std::fseek(file_, 0, SEEK_END);
  uint64_t frame = write_frame(file_, type, parts);
  // Write-ahead contract: the record must be durable before the caller acts
  // on it (e.g. emits the sign-share the vote describes).
  std::fflush(file_);
  bytes_written_ += frame;
  file_bytes_ += frame;
}

void FileWal::record_view(ViewNum view) {
  Bytes payload = encode_view(view);
  append_record(kView, {as_span(payload)});
  apply_record(state_, kView, as_span(payload));
}

void FileWal::record_vote(SeqNum seq, ViewNum view, const Digest& block_digest) {
  Bytes payload = encode_vote(seq, view, block_digest);
  append_record(kVote, {as_span(payload)});
  apply_record(state_, kVote, as_span(payload));
}

void FileWal::record_checkpoint(const ExecCertificate& cert,
                                std::shared_ptr<const Bytes> snapshot) {
  SBFT_CHECK(snapshot != nullptr);
  // Append the one record — loaders treat it as superseding earlier
  // checkpoints and votes at or below its sequence — and rewrite only when
  // dead records dominate the live state. Frame sizes are derived from the
  // encoders so the threshold stays in sync with the format.
  Bytes head = checkpoint_head(cert, snapshot->size());
  append_record(kCheckpoint, {as_span(head), as_span(*snapshot)});
  const uint64_t payload = head.size() + snapshot->size();
  apply_checkpoint(state_, cert, std::move(snapshot));
  static const uint64_t kFrameHeader = 4 + 1;  // [u32 len][u8 type]
  static const uint64_t kViewFrame = kFrameHeader + encode_view(0).size();
  static const uint64_t kVoteFrame =
      kFrameHeader + encode_vote(0, 0, Digest{}).size();
  uint64_t live = sizeof(kMagic) + (state_.view > 0 ? kViewFrame : 0) +
                  kFrameHeader + payload + state_.votes.size() * kVoteFrame;
  if (file_bytes_ > 2 * live + 4096) rewrite(state_);
}

void FileWal::rewrite(const WalState& state) {
  // Compaction: serialize the logical state into a fresh file and rename it
  // over the old log, so a crash mid-compaction leaves one valid log behind.
  std::string tmp = path_ + ".compact";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (!out) throw std::runtime_error("FileWal: cannot open " + tmp);
  SBFT_CHECK(std::fwrite(kMagic, 1, sizeof(kMagic), out) == sizeof(kMagic));
  uint64_t size = sizeof(kMagic);
  if (state.view > 0) size += write_frame(out, kView, {as_span(encode_view(state.view))});
  if (state.last_stable > 0) {
    Bytes head = checkpoint_head(state.checkpoint, state.snapshot->size());
    size += write_frame(out, kCheckpoint, {as_span(head), as_span(*state.snapshot)});
  }
  for (const WalVote& v : state.votes) {
    size += write_frame(out, kVote, {as_span(encode_vote(v.seq, v.view, v.block_digest))});
  }
  std::fflush(out);
  std::fclose(out);
  std::fclose(file_);
  file_ = nullptr;  // keep the destructor off the closed stream if we throw
  if (std::rename(tmp.c_str(), path_.c_str()) != 0)
    throw std::runtime_error("FileWal: rename failed for " + path_);
  file_ = std::fopen(path_.c_str(), "ab+");
  if (!file_) throw std::runtime_error("FileWal: cannot reopen " + path_);
  bytes_written_ += size;
  file_bytes_ = size;
}

WalState FileWal::load() const { return state_; }

long FileWal::scan(WalState* state) const {
  std::fflush(file_);
  std::fseek(file_, 0, SEEK_END);
  long size = std::ftell(file_);
  if (size < static_cast<long>(sizeof(kMagic))) return 0;
  Bytes raw(static_cast<size_t>(size));
  std::rewind(file_);
  size_t got = std::fread(raw.data(), 1, raw.size(), file_);
  std::fseek(file_, 0, SEEK_END);
  if (got != raw.size()) return 0;
  if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) return 0;

  size_t pos = sizeof(kMagic);
  while (pos + 4 <= raw.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(raw[pos + i]) << (8 * i);
    if (len == 0 || pos + 4 + len > raw.size()) break;  // torn tail record
    uint8_t type = raw[pos + 4];
    ByteSpan payload{raw.data() + pos + 5, len - 1};
    WalState scratch;
    if (!apply_record(state ? *state : scratch, type, payload)) break;  // corrupt
    pos += 4 + len;
  }
  return static_cast<long>(pos);
}

void FileWal::sync() { std::fflush(file_); }

}  // namespace sbft::recovery
