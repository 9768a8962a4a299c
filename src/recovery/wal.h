// Replica write-ahead log (§VIII: the paper persists consensus-critical state
// through RocksDB so replicas survive crashes and rejoin).
//
// The ledger (storage/ledger_storage.h) holds the committed decision blocks;
// the WAL layers the remaining consensus-critical metadata on top of it:
//   * the highest view the replica entered,
//   * the latest stable checkpoint certificate plus its snapshot envelope,
//   * in-flight slot votes (seq, view, block digest) written *before* the
//     replica emits a sign-share, so a recovered replica can never be tricked
//     into equivocating about a slot it voted on pre-crash.
//
// On checkpoint the log compacts: votes at or below the stable sequence are
// dropped and superseded checkpoints/views supersede in-place on load.
// FileWal compacts *incrementally* (RocksDB-style): a checkpoint appends one
// record, and the file is only rewritten from scratch when the dead-record
// ratio crosses a threshold — never the whole log (snapshot + every
// surviving vote) at every checkpoint. recovery_bench asserts the file stays
// within a small multiple of the live state.
//
// The checkpoint's snapshot envelope is an immutable, refcounted buffer,
// the one the CheckpointManager holds (docs/architecture.md, "Ownership"):
// both implementations keep that pointer as the logical state, so a replica
// holds each stable envelope once. FileWal also appends its bytes to the file.
//
// Two implementations: MemoryWal (simulation — the harness keeps the handle
// alive across a simulated restart, standing in for the surviving disk) and
// FileWal (versioned on-disk format that tolerates a truncated tail record,
// i.e. a partial write at the moment of the crash).
#pragma once

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "proto/message.h"

namespace sbft::recovery {

/// A slot the replica voted on (sent a sign-share for) before crashing.
struct WalVote {
  SeqNum seq = 0;
  ViewNum view = 0;
  Digest block_digest{};
};

/// Materialized view of the log, as rebuilt by load().
struct WalState {
  ViewNum view = 0;
  SeqNum last_stable = 0;      // 0: no checkpoint recorded yet
  ExecCertificate checkpoint;  // pi-certified; valid when last_stable > 0
  // Snapshot envelope at the checkpoint; set when last_stable > 0.
  std::shared_ptr<const Bytes> snapshot;
  std::vector<WalVote> votes;  // votes above last_stable, ascending seq

  bool empty() const { return view == 0 && last_stable == 0 && votes.empty(); }
};

class IReplicaWal {
 public:
  virtual ~IReplicaWal() = default;

  /// Records that the replica entered `view` (monotone).
  virtual void record_view(ViewNum view) = 0;
  /// Records a slot vote; must be durable before the sign-share leaves.
  virtual void record_vote(SeqNum seq, ViewNum view, const Digest& block_digest) = 0;
  /// Records a new stable checkpoint and compacts everything it supersedes.
  /// The log keeps `snapshot` by reference; it must not change afterwards.
  virtual void record_checkpoint(const ExecCertificate& cert,
                                 std::shared_ptr<const Bytes> snapshot) = 0;
  /// Copies `snapshot` into a fresh buffer and records it.
  void record_checkpoint(const ExecCertificate& cert, ByteSpan snapshot);

  /// Rebuilds the logical state from the log (empty state for a fresh log).
  virtual WalState load() const = 0;

  /// Cumulative bytes appended over this handle's lifetime (metrics).
  virtual uint64_t bytes_written() const = 0;
  /// Flushes buffered writes to stable storage.
  virtual void sync() {}
};

/// In-memory WAL for the simulator: the cluster harness owns the handle, so
/// it survives the replica object being torn down and rebuilt on restart.
/// bytes_written counts each record as FileWal frames it, less the u32
/// length prefix: the type byte and the payload.
class MemoryWal final : public IReplicaWal {
 public:
  using IReplicaWal::record_checkpoint;
  void record_view(ViewNum view) override;
  void record_vote(SeqNum seq, ViewNum view, const Digest& block_digest) override;
  void record_checkpoint(const ExecCertificate& cert,
                         std::shared_ptr<const Bytes> snapshot) override;
  WalState load() const override { return state_; }
  uint64_t bytes_written() const override { return bytes_written_; }

 private:
  WalState state_;
  uint64_t bytes_written_ = 0;
};

/// Append-only file of framed records:
///   [8-byte magic "SBFTWAL" + version][records...]
///   record := [u32 len][u8 type][payload (len-1 bytes)]
/// A torn tail record (partial write at crash) is ignored on load and
/// truncated away by the next compaction. Later records supersede earlier
/// ones on load (a checkpoint drops votes at or below its sequence), so
/// appending is always safe; a checkpoint rewrites the file only when dead
/// records (superseded checkpoints/views, compacted votes) dominate, which
/// bounds it to a small multiple of the live state.
class FileWal final : public IReplicaWal {
 public:
  explicit FileWal(const std::string& path);
  ~FileWal() override;

  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  using IReplicaWal::record_checkpoint;
  void record_view(ViewNum view) override;
  void record_vote(SeqNum seq, ViewNum view, const Digest& block_digest) override;
  void record_checkpoint(const ExecCertificate& cert,
                         std::shared_ptr<const Bytes> snapshot) override;
  WalState load() const override;
  uint64_t bytes_written() const override { return bytes_written_; }
  void sync() override;

  /// Current size of the on-disk log (live + not-yet-compacted records).
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  void append_record(uint8_t type, std::initializer_list<ByteSpan> parts);
  void rewrite(const WalState& state);
  /// Parses the record stream; fills `state` when non-null. Returns the file
  /// offset just past the last complete, well-formed record.
  long scan(WalState* state) const;

  std::string path_;
  std::FILE* file_ = nullptr;
  // In-memory mirror of the logical state (what scan() of the file yields,
  // but holding the recorded envelope pointer); keeps load() O(1) and lets
  // compaction size the live state without re-reading the file.
  WalState state_;
  uint64_t bytes_written_ = 0;
  uint64_t file_bytes_ = 0;
};

}  // namespace sbft::recovery
