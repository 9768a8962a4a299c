// Durability & crash recovery (§VIII): WAL round-trips and compaction, torn
// tail tolerance, ledger replay through ReplicaRuntime::recover() — which
// runs the live execution core, so a rebuilt replica re-derives the d_s
// chain it executed — and full simulated kill-and-restart scenarios (within
// a view, across a view change, and with a wiped disk forcing state
// transfer).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "harness/cluster.h"
#include "harness/workload.h"
#include "kv/kv_service.h"
#include "recovery/wal.h"
#include "runtime/replica_runtime.h"
#include "runtime/snapshot.h"
#include "sim/network.h"
#include "storage/ledger_storage.h"

namespace sbft::recovery {
namespace {

class TempFile {
 public:
  TempFile() {
    path_ = (std::filesystem::temp_directory_path() /
             ("sbft-wal-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter_++)))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

Digest digest_of(uint8_t fill) {
  Digest d{};
  d.fill(fill);
  return d;
}

ExecCertificate make_cert(SeqNum seq) {
  ExecCertificate cert;
  cert.seq = seq;
  cert.state_root = digest_of(0x11);
  cert.ops_root = digest_of(0x22);
  cert.prev_exec_digest = digest_of(0x33);
  cert.pi_sig = to_bytes("pi-signature");
  return cert;
}

// ---------------------------------------------------------------------------
// WAL round-trips

template <typename Wal>
void roundtrip_checks(Wal& wal) {
  EXPECT_TRUE(wal.load().empty());
  wal.record_view(1);
  wal.record_vote(5, 1, digest_of(0xa5));
  wal.record_vote(6, 1, digest_of(0xa6));
  WalState state = wal.load();
  EXPECT_EQ(state.view, 1u);
  ASSERT_EQ(state.votes.size(), 2u);
  EXPECT_EQ(state.votes[0].seq, 5u);
  EXPECT_EQ(state.votes[1].block_digest, digest_of(0xa6));
  EXPECT_GT(wal.bytes_written(), 0u);

  // Checkpoint at 5 compacts the vote at 5 away but keeps the one at 6.
  wal.record_checkpoint(make_cert(5), as_span(to_bytes("snapshot-5")));
  state = wal.load();
  EXPECT_EQ(state.last_stable, 5u);
  EXPECT_EQ(state.checkpoint.pi_sig, to_bytes("pi-signature"));
  EXPECT_EQ(*state.snapshot, to_bytes("snapshot-5"));
  ASSERT_EQ(state.votes.size(), 1u);
  EXPECT_EQ(state.votes[0].seq, 6u);
  EXPECT_EQ(state.view, 1u);
}

TEST(MemoryWalTest, RoundTripAndCompaction) {
  MemoryWal wal;
  roundtrip_checks(wal);
}

TEST(FileWalTest, RoundTripAndCompaction) {
  TempFile tmp;
  FileWal wal(tmp.path());
  roundtrip_checks(wal);
}

TEST(FileWalTest, SurvivesReopen) {
  TempFile tmp;
  {
    FileWal wal(tmp.path());
    wal.record_view(3);
    wal.record_checkpoint(make_cert(8), as_span(to_bytes("snap")));
    wal.record_vote(9, 3, digest_of(0x99));
    wal.sync();
  }
  FileWal reopened(tmp.path());
  WalState state = reopened.load();
  EXPECT_EQ(state.view, 3u);
  EXPECT_EQ(state.last_stable, 8u);
  EXPECT_EQ(*state.snapshot, to_bytes("snap"));
  ASSERT_EQ(state.votes.size(), 1u);
  EXPECT_EQ(state.votes[0].seq, 9u);
}

TEST(FileWalTest, ToleratesTornTailRecord) {
  TempFile tmp;
  {
    FileWal wal(tmp.path());
    wal.record_view(2);
    wal.record_vote(4, 2, digest_of(0x44));
    wal.sync();
  }
  // Simulate a crash mid-append: chop bytes off the last record.
  auto full = std::filesystem::file_size(tmp.path());
  std::filesystem::resize_file(tmp.path(), full - 7);
  FileWal reopened(tmp.path());
  WalState state = reopened.load();
  EXPECT_EQ(state.view, 2u);
  EXPECT_TRUE(state.votes.empty());  // torn vote ignored
  // The log still accepts appends and the next load sees them.
  reopened.record_vote(5, 2, digest_of(0x55));
  reopened.record_checkpoint(make_cert(4), as_span(to_bytes("s4")));
  state = reopened.load();
  EXPECT_EQ(state.last_stable, 4u);
  ASSERT_EQ(state.votes.size(), 1u);
  EXPECT_EQ(state.votes[0].seq, 5u);
}

TEST(FileWalTest, CorruptMagicRestartsAsFreshLog) {
  // A crash during the initial magic write must not leave a headerless file:
  // appends after reopen have to survive further reopens.
  TempFile tmp;
  {
    FileWal wal(tmp.path());
    wal.record_view(7);
  }
  std::filesystem::resize_file(tmp.path(), 4);  // torn magic
  {
    FileWal reopened(tmp.path());
    EXPECT_TRUE(reopened.load().empty());  // old records unrecoverable
    reopened.record_vote(3, 0, digest_of(0x33));
    reopened.sync();
    ASSERT_EQ(reopened.load().votes.size(), 1u);
  }
  FileWal again(tmp.path());
  WalState state = again.load();
  ASSERT_EQ(state.votes.size(), 1u);  // append survived the second reopen
  EXPECT_EQ(state.votes[0].seq, 3u);
}

TEST(MemoryWalTest, CountsTheFramesFileWalAppends) {
  // MemoryWal::bytes_written (the repo benchmark's wal.bytes_per_op) counts
  // each record as FileWal frames it, less the u32 length prefix: the type
  // byte and the payload. MemoryWal sizes a checkpoint without encoding it.
  TempFile tmp;
  FileWal file(tmp.path());
  MemoryWal memory;
  const Bytes envelope(70'000, 0x5c);
  uint64_t records = 0;
  auto both = [&](const auto& record) {
    record(static_cast<IReplicaWal&>(file));
    record(static_cast<IReplicaWal&>(memory));
    ++records;
  };
  both([](IReplicaWal& w) { w.record_view(3); });
  both([](IReplicaWal& w) { w.record_vote(5, 3, digest_of(0x55)); });
  both([](IReplicaWal& w) { w.record_checkpoint(make_cert(4), as_span(to_bytes("small"))); });
  both([](IReplicaWal& w) { w.record_vote(7, 3, digest_of(0x77)); });
  both([&](IReplicaWal& w) { w.record_checkpoint(make_cert(6), as_span(envelope)); });

  // No compaction ran: the file is the magic and one frame per record.
  ASSERT_EQ(file.file_bytes(), 8 + file.bytes_written());
  ASSERT_EQ(std::filesystem::file_size(tmp.path()), file.file_bytes());
  EXPECT_EQ(memory.bytes_written() + 4 * records, file.bytes_written());
  // [u8 type] + payload: a view is a u64; a vote two u64s and a digest; a
  // checkpoint the length-prefixed certificate and snapshot.
  const uint64_t cert = encode_exec_certificate(make_cert(4)).size();
  EXPECT_EQ(memory.bytes_written(),
            (1 + 8) + 2 * (1 + 8 + 8 + 32) + (1 + 4 + cert + 4 + 5) +
                (1 + 4 + cert + 4 + envelope.size()));
}

TEST(FileWalTest, IncrementalCompactionConvergesAndStaysBounded) {
  // A checkpoint appends one record instead of rewriting the whole log
  // (snapshot + every surviving vote); the file is rewritten only when dead
  // records dominate. With a realistic in-flight window of votes ahead of the
  // stable sequence, the log must still load the same logical state as a
  // MemoryWal fed the same records, and stay a small multiple of it on disk.
  TempFile a;
  FileWal wal(a.path());
  MemoryWal reference;
  const Bytes snap(256, 0xab);
  for (SeqNum s = 1; s <= 512; ++s) {
    wal.record_vote(s, 1, digest_of(0x10));
    reference.record_vote(s, 1, digest_of(0x10));
    if (s % 16 == 0 && s > 256) {
      // Checkpoint trails the vote head by a 256-deep in-flight window.
      wal.record_checkpoint(make_cert(s - 256), as_span(snap));
      reference.record_checkpoint(make_cert(s - 256), as_span(snap));
    }
  }
  WalState si = wal.load();
  WalState sr = reference.load();
  EXPECT_EQ(si.last_stable, sr.last_stable);
  EXPECT_EQ(*si.snapshot, *sr.snapshot);
  EXPECT_EQ(si.votes.size(), sr.votes.size());
  // The threshold rewrite bounds the file to a small multiple of the live
  // state (window of votes + one snapshot).
  EXPECT_LT(wal.file_bytes(), 4 * (256 * 53 + snap.size() + 1024));
  // A reopen of the incrementally-compacted log sees the same state.
  wal.sync();
  FileWal reopened(a.path());
  EXPECT_EQ(reopened.load().last_stable, si.last_stable);
  EXPECT_EQ(reopened.load().votes.size(), si.votes.size());
}

// ---------------------------------------------------------------------------
// Ledger replay through ReplicaRuntime::recover()

Bytes encoded_block(SeqNum s, ViewNum v, ClientId client, uint64_t timestamp) {
  Block block;
  Request req;
  req.client = client;
  req.timestamp = timestamp;
  req.op = to_bytes("op-" + std::to_string(s));
  block.requests.push_back(std::move(req));
  return encode_message(Message(PrePrepareMsg{s, v, std::move(block)}));
}

/// A runtime on a fresh FastKvService over `ledger` and `wal` (either may be
/// null), as a restarted replica would build it before recover().
std::unique_ptr<runtime::ReplicaRuntime> runtime_on(
    std::shared_ptr<storage::ILedgerStorage> ledger,
    std::shared_ptr<IReplicaWal> wal) {
  runtime::RuntimeOptions opts;
  opts.ledger = std::move(ledger);
  opts.wal = std::move(wal);
  return std::make_unique<runtime::ReplicaRuntime>(
      std::move(opts), std::make_unique<harness::FastKvService>());
}

/// Blocks 1..last of `ledger`: the log of a replica that stopped at `last`.
std::shared_ptr<storage::MemoryLedgerStorage> prefix_of(
    const storage::MemoryLedgerStorage& ledger, SeqNum last) {
  auto prefix = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= last; ++s) prefix->append_block(s, ledger.read_block(s));
  return prefix;
}

TEST(LedgerReplay, FreshStorageRecoversNothing) {
  auto rt = runtime_on(std::make_shared<storage::MemoryLedgerStorage>(),
                       std::make_shared<MemoryWal>());
  EXPECT_FALSE(rt->recover().has_value());
}

TEST(LedgerReplay, ReplaysLedgerFromGenesis) {
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= 4; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, 0, 100, s)));
  }
  auto rt = runtime_on(ledger, nullptr);
  auto recovered = rt->recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(rt->last_executed(), 4u);
  EXPECT_EQ(rt->last_stable(), 0u);
  EXPECT_EQ(rt->stats().blocks_replayed, 4u);
  // The chained digest d_s links back to genesis.
  ASSERT_NE(rt->record(1), nullptr);
  EXPECT_EQ(rt->record(1)->cert.prev_exec_digest, genesis_exec_digest());
  for (SeqNum s = 1; s <= 4; ++s) {
    ASSERT_NE(rt->record(s), nullptr);
    EXPECT_EQ(rt->exec_digest_of(s).value(), rt->record(s)->cert.exec_digest());
    if (s > 1) {
      EXPECT_EQ(rt->record(s)->cert.prev_exec_digest,
                rt->exec_digest_of(s - 1).value());
    }
  }
  // Service state matches the final certificate's state root.
  EXPECT_EQ(rt->service().state_digest(), rt->record(4)->cert.state_root);
  EXPECT_GT(recovered->replayed_bytes, 0u);
  // Replay recovers; it does not count as live execution.
  EXPECT_EQ(rt->stats().blocks_executed, 0u);
  EXPECT_EQ(rt->stats().requests_executed, 0u);
}

TEST(LedgerReplay, SnapshotPlusSuffixMatchesFullReplay) {
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= 6; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, 0, 7, s)));
  }

  // Full replay to establish the reference chain.
  auto reference = runtime_on(ledger, nullptr);
  ASSERT_TRUE(reference->recover().has_value());

  // Checkpoint at 3: a runtime that replayed only 1..3 holds the certificate,
  // the service state and the reply cache that rides in the envelope.
  auto at3 = runtime_on(prefix_of(*ledger, 3), nullptr);
  ASSERT_TRUE(at3->recover().has_value());
  auto wal = std::make_shared<MemoryWal>();
  wal->record_checkpoint(at3->record(3)->cert,
                         as_span(runtime::encode_checkpoint_snapshot(
                             as_span(at3->service().snapshot()), at3->replies())));
  wal->record_view(0);

  auto rt = runtime_on(ledger, wal);
  ASSERT_TRUE(rt->recover().has_value());
  EXPECT_EQ(rt->last_stable(), 3u);
  EXPECT_EQ(rt->last_executed(), 6u);
  EXPECT_EQ(rt->stats().blocks_replayed, 3u);  // only the suffix re-executed
  EXPECT_EQ(rt->exec_digest_of(6).value(), reference->exec_digest_of(6).value());
  EXPECT_EQ(rt->service().state_digest(), reference->service().state_digest());
  // The recovered reply cache spans checkpoint + suffix.
  ASSERT_NE(rt->replies().find(7), nullptr);
  EXPECT_EQ(rt->replies().find(7)->timestamp, 6u);
}

TEST(LedgerReplay, BareWalSnapshotAbortsRecovery) {
  // A WAL checkpoint carrying a raw service snapshot instead of the envelope
  // (no reply cache, no magic) is refused like a corrupt one, even though
  // its service state matches the certified root: the replica boots fresh
  // and relies on state transfer.
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= 4; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, 0, 9, s)));
  }
  auto at2 = runtime_on(prefix_of(*ledger, 2), nullptr);
  ASSERT_TRUE(at2->recover().has_value());
  auto wal = std::make_shared<MemoryWal>();
  wal->record_checkpoint(at2->record(2)->cert, as_span(at2->service().snapshot()));

  auto rt = runtime_on(ledger, wal);
  EXPECT_FALSE(rt->recover().has_value());
  EXPECT_EQ(rt->last_executed(), 0u);  // nothing was installed
}

TEST(LedgerReplay, CorruptSnapshotAbortsRecovery) {
  auto wal = std::make_shared<MemoryWal>();
  ExecCertificate cp = make_cert(4);  // state_root matches nothing
  wal->record_checkpoint(cp, as_span(to_bytes("not-a-snapshot")));
  auto rt = runtime_on(nullptr, wal);
  EXPECT_FALSE(rt->recover().has_value());  // boot fresh, rely on state transfer
}

TEST(LedgerReplay, SurfacesInFlightVotes) {
  auto wal = std::make_shared<MemoryWal>();
  wal->record_view(1);
  wal->record_vote(2, 1, digest_of(0x02));
  auto rt = runtime_on(std::make_shared<storage::MemoryLedgerStorage>(), wal);
  auto recovered = rt->recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->view, 1u);
  ASSERT_EQ(recovered->votes.size(), 1u);
  EXPECT_EQ(recovered->votes[0].seq, 2u);
}

// ---------------------------------------------------------------------------
// One envelope per stable checkpoint: the WAL keeps the manager's buffer

class CheckpointEnvelope : public ::testing::Test {
 protected:
  CheckpointEnvelope() : net_(simulator_, sim::lan_topology(), sim::CostModel{}) {
    node_ = net_.add_node(&idle_);
    net_.start();
  }

  /// A KvService runtime checkpointing every 2 sequences.
  std::unique_ptr<runtime::ReplicaRuntime> make_runtime(
      std::shared_ptr<IReplicaWal> wal) const {
    runtime::RuntimeOptions opts;
    opts.checkpoint_interval = 2;
    opts.ledger = ledger_;
    opts.wal = std::move(wal);
    return std::make_unique<runtime::ReplicaRuntime>(
        std::move(opts), std::make_unique<kv::KvService>());
  }

  /// Executes one put per sequence through `last`, then makes `last` the
  /// stable checkpoint.
  void execute_through(runtime::ReplicaRuntime& rt, SeqNum last) {
    net_.offload(node_, 0, [&](sim::ActorContext& ctx) {
      for (SeqNum s = rt.last_executed() + 1; s <= last; ++s) {
        Block block;
        Request put;
        put.client = 100;
        put.timestamp = s;
        put.op = kv::encode_put(as_span(to_bytes("key-" + std::to_string(s))),
                                as_span(Bytes(3000, static_cast<uint8_t>(s))));
        block.requests.push_back(std::move(put));
        rt.execute_block(s, 0, block, ctx);
      }
      ASSERT_TRUE(rt.advance_stable(rt.record(last)->cert, ctx));
    });
    simulator_.run_until_idle();
  }

  struct Idle : sim::IActor {
    void on_message(NodeId, const Message&, sim::ActorContext&) override {}
  } idle_;
  sim::Simulator simulator_;
  sim::Network net_;
  NodeId node_ = 0;
  std::shared_ptr<storage::MemoryLedgerStorage> ledger_ =
      std::make_shared<storage::MemoryLedgerStorage>();
};

TEST_F(CheckpointEnvelope, MemoryWalKeepsTheManagersBufferPastTheNextCheckpoint) {
  auto wal = std::make_shared<MemoryWal>();
  auto live = make_runtime(wal);
  execute_through(*live, 2);
  WalState at2 = wal->load();
  ASSERT_EQ(at2.last_stable, 2u);
  EXPECT_EQ(at2.snapshot.get(), live->checkpoints().snapshot_ptr().get());
  const Bytes envelope2 = *at2.snapshot;

  // The manager moves on to checkpoint 4, and the WAL with it.
  execute_through(*live, 4);
  ASSERT_EQ(live->checkpoints().snapshot_cert().seq, 4u);
  EXPECT_EQ(wal->load().snapshot.get(), live->checkpoints().snapshot_ptr().get());
  EXPECT_NE(live->checkpoints().snapshot(), envelope2);

  // A replica restarted from the log as it stood at checkpoint 2 recovers
  // that envelope byte for byte, then replays the ledger past it.
  auto disk = std::make_shared<MemoryWal>();
  disk->record_checkpoint(at2.checkpoint, at2.snapshot);
  auto restarted = make_runtime(disk);
  ASSERT_TRUE(restarted->recover().has_value());
  EXPECT_EQ(restarted->last_stable(), 2u);
  EXPECT_EQ(restarted->last_executed(), 4u);
  EXPECT_EQ(restarted->checkpoints().snapshot(), envelope2);
  EXPECT_EQ(restarted->service().state_digest(), live->service().state_digest());
}

TEST_F(CheckpointEnvelope, FileWalRestartRecoversTheEnvelopeItWrote) {
  TempFile file;
  TempFile copy;
  auto wal = std::make_shared<FileWal>(file.path());
  auto live = make_runtime(wal);
  execute_through(*live, 2);
  EXPECT_EQ(wal->load().snapshot.get(), live->checkpoints().snapshot_ptr().get());
  const Bytes envelope2 = live->checkpoints().snapshot();
  wal->sync();
  std::filesystem::copy_file(file.path(), copy.path());  // the disk at 2

  execute_through(*live, 4);
  ASSERT_NE(live->checkpoints().snapshot(), envelope2);

  auto restarted = make_runtime(std::make_shared<FileWal>(copy.path()));
  ASSERT_TRUE(restarted->recover().has_value());
  EXPECT_EQ(restarted->last_stable(), 2u);
  EXPECT_EQ(restarted->checkpoints().snapshot(), envelope2);
  EXPECT_EQ(restarted->service().state_digest(), live->service().state_digest());
}

TEST(LedgerReplay, MatchesLiveExecutionAcrossReconfigMarker) {
  // A replica executes a reconfiguration marker (seq 1) and a put (seq 2),
  // then crashes before its first stable checkpoint. Replay must re-derive
  // what live execution did: the marker is staged against the genesis
  // roster, so the values, the d_s chain the cluster certified and the
  // pending activation all match.
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  auto wal = std::make_shared<MemoryWal>();
  auto make_runtime = [&] {
    runtime::RuntimeOptions opts;
    opts.checkpoint_interval = 8;
    opts.ledger = ledger;
    opts.wal = wal;
    opts.membership_f = 1;
    for (ReplicaId r = 1; r <= 4; ++r) {
      opts.bootstrap_members.push_back({r, static_cast<NodeId>(r - 1)});
    }
    opts.self = 1;
    return std::make_unique<runtime::ReplicaRuntime>(
        std::move(opts), std::make_unique<harness::FastKvService>());
  };

  ReconfigDelta delta;
  for (ReplicaId r = 5; r <= 7; ++r) {
    delta.adds.push_back({r, static_cast<NodeId>(r - 1)});
  }
  delta.new_f = 2;
  Block marker_block;
  marker_block.requests.push_back(make_reconfig_request(delta, /*nonce=*/1));
  Block put_block;
  Request put;
  put.client = 100;
  put.timestamp = 1;
  put.op = to_bytes("put-after-marker");
  put_block.requests.push_back(std::move(put));

  auto live = make_runtime();
  sim::Simulator simulator;
  sim::Network net(simulator, sim::lan_topology(), sim::CostModel{});
  struct Idle : sim::IActor {
    void on_message(NodeId, const Message&, sim::ActorContext&) override {}
  } idle;
  NodeId node = net.add_node(&idle);
  net.start();
  net.offload(node, 0, [&](sim::ActorContext& ctx) {
    live->execute_block(1, 0, marker_block, ctx);
    live->execute_block(2, 0, put_block, ctx);
  });
  simulator.run_until_idle();
  ASSERT_EQ(live->last_executed(), 2u);
  ASSERT_EQ(live->record(1)->values[0], to_bytes("RECONF"));

  auto recovered = make_runtime();
  ASSERT_TRUE(recovered->recover().has_value());
  ASSERT_EQ(recovered->last_executed(), 2u);
  EXPECT_EQ(recovered->record(1)->values, live->record(1)->values);
  EXPECT_EQ(recovered->exec_digest_of(1).value(), live->exec_digest_of(1).value());
  EXPECT_EQ(recovered->exec_digest_of(2).value(), live->exec_digest_of(2).value());
  EXPECT_EQ(recovered->membership().pending_activation(),
            live->membership().pending_activation());
}

}  // namespace
}  // namespace sbft::recovery

// ---------------------------------------------------------------------------
// Simulated kill-and-restart scenarios

namespace sbft::harness {
namespace {

ClusterOptions recovery_base(uint32_t f, uint64_t requests) {
  ClusterOptions opts;
  opts.kind = ProtocolKind::kSbft;
  opts.f = f;
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

TEST(Recovery, RestartFromWalWithinView) {
  // Acceptance scenario: kill a non-primary replica mid-run, restart it, and
  // watch it recover from WAL + ledger, rejoin, and re-enter fast commits.
  auto opts = recovery_base(1, 400);
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/4'000'000,
                                   /*replica=*/3, /*wipe_storage=*/false});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";

  core::SbftReplica* restarted = cluster.sbft_replica(3);
  EXPECT_EQ(restarted->stats().recoveries, 1u);
  EXPECT_GT(restarted->stats().blocks_replayed, 0u) << "WAL/ledger were empty";
  // Rejoined: executed well past whatever it recovered to.
  EXPECT_GT(restarted->last_executed(), restarted->stats().blocks_replayed);
  // Re-entered the fast path (f=1, c=0: fast quorum needs all n=4 replicas,
  // so post-restart fast commits prove the recovered replica participates).
  EXPECT_GT(restarted->stats().fast_commits, 0u);
  EXPECT_EQ(cluster.total_recoveries(), 1u);
  EXPECT_GT(cluster.total_wal_bytes_written(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 400u);
  }
}

TEST(Recovery, RestartAcrossViewChange) {
  // The replica sleeps through a view change (primary crashed while it was
  // down) and must fast-forward into the new view from verified quorum
  // signatures when it comes back.
  auto opts = recovery_base(2, 150);  // n = 7: tolerates backup + primary down
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.view_change_timeout_us = 1'000'000;
  };
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/12'000'000,
                                   /*replica=*/3, /*wipe_storage=*/false});
  // Crash-only event: the view-0 primary dies while replica 3 is down.
  opts.restart_schedule.push_back({/*crash_at_us=*/2'000'000,
                                   /*restart_at_us=*/0,
                                   /*replica=*/1, /*wipe_storage=*/false});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";

  EXPECT_GT(cluster.total_view_changes(), 0u);
  core::SbftReplica* restarted = cluster.sbft_replica(3);
  EXPECT_EQ(restarted->stats().recoveries, 1u);
  EXPECT_GT(restarted->view(), 0u) << "never adopted the post-crash view";
  EXPECT_GT(restarted->last_executed(), 0u);
  EXPECT_TRUE(cluster.check_agreement());
}

TEST(Recovery, WipedDiskFallsBackToStateTransfer) {
  auto opts = recovery_base(1, 300);
  opts.restart_schedule.push_back({/*crash_at_us=*/1'000'000,
                                   /*restart_at_us=*/5'000'000,
                                   /*replica=*/4, /*wipe_storage=*/true});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000)) << "clients stalled";

  core::SbftReplica* restarted = cluster.sbft_replica(4);
  EXPECT_EQ(restarted->stats().recoveries, 0u);  // nothing local survived
  EXPECT_GT(restarted->stats().state_transfers, 0u)
      << "empty replica never requested state transfer";
  EXPECT_GT(restarted->last_executed(), 0u) << "never caught up";
  EXPECT_TRUE(cluster.check_agreement());
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_EQ(cluster.client(i).completed(), 300u);
  }
}

TEST(Recovery, RollingRestartKeepsClusterLiveAndSafe) {
  auto opts = recovery_base(1, 500);
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
    EXPECT_EQ(cluster.client(i).completed(), 500u);
  }
}

TEST(Recovery, RestartedReplicaServesClientRetries) {
  // The rebuilt reply cache must answer duplicate requests (client retry
  // after the original reply was lost with the crash).
  auto opts = recovery_base(1, 250);
  opts.restart_schedule.push_back({800'000, 2'500'000, 2, false});
  Cluster cluster(std::move(opts));
  ASSERT_TRUE(cluster.run_until_done(600'000'000));
  // Recovery rebuilt a non-empty reply cache is observable indirectly: all
  // clients finished and agreement holds even though a replica vanished and
  // returned mid-conversation.
  EXPECT_EQ(cluster.sbft_replica(2)->stats().recoveries, 1u);
  EXPECT_TRUE(cluster.check_agreement());
}

}  // namespace
}  // namespace sbft::harness
