// Durability & crash recovery (§VIII): WAL round-trips and compaction, torn
// tail tolerance, ledger replay through RecoveryManager, and full simulated
// kill-and-restart scenarios (within a view, across a view change, and with a
// wiped disk forcing state transfer).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "harness/cluster.h"
#include "harness/workload.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal.h"
#include "runtime/snapshot.h"
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
  EXPECT_EQ(state.snapshot, to_bytes("snapshot-5"));
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
  EXPECT_EQ(state.snapshot, to_bytes("snap"));
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

TEST(FileWalTest, IncrementalCompactionWritesFewerBytesAndConverges) {
  // ROADMAP open item: compact only records below the stable checkpoint
  // instead of rewriting the whole log (snapshot + every surviving vote) at
  // every checkpoint. With a realistic in-flight window of votes ahead of
  // the stable sequence, the full-rewrite policy re-writes all of them per
  // checkpoint; the incremental policy appends one record and only rewrites
  // when dead bytes dominate.
  TempFile a, b;
  FileWal inc(a.path(), WalCompaction::kIncremental);
  FileWal full(b.path(), WalCompaction::kFullRewrite);
  const Bytes snap(256, 0xab);
  for (SeqNum s = 1; s <= 512; ++s) {
    inc.record_vote(s, 1, digest_of(0x10));
    full.record_vote(s, 1, digest_of(0x10));
    if (s % 16 == 0 && s > 256) {
      // Checkpoint trails the vote head by a 256-deep in-flight window.
      inc.record_checkpoint(make_cert(s - 256), as_span(snap));
      full.record_checkpoint(make_cert(s - 256), as_span(snap));
    }
  }
  EXPECT_LT(inc.bytes_written(), full.bytes_written());
  // Same logical state under either policy.
  WalState si = inc.load();
  WalState sf = full.load();
  EXPECT_EQ(si.last_stable, sf.last_stable);
  EXPECT_EQ(si.snapshot, sf.snapshot);
  EXPECT_EQ(si.votes.size(), sf.votes.size());
  // The threshold rewrite bounds the incremental file to a small multiple of
  // the live state (window of votes + one snapshot).
  EXPECT_LT(inc.file_bytes(), 4 * (256 * 53 + snap.size() + 1024));
  // A reopen of the incrementally-compacted log sees the same state.
  inc.sync();
  FileWal reopened(a.path());
  EXPECT_EQ(reopened.load().last_stable, si.last_stable);
  EXPECT_EQ(reopened.load().votes.size(), si.votes.size());
}

// ---------------------------------------------------------------------------
// RecoveryManager ledger replay

Bytes encoded_block(SeqNum s, ViewNum v, ClientId client, uint64_t timestamp) {
  Block block;
  Request req;
  req.client = client;
  req.timestamp = timestamp;
  req.op = to_bytes("op-" + std::to_string(s));
  block.requests.push_back(std::move(req));
  return encode_message(Message(PrePrepareMsg{s, v, std::move(block)}));
}

TEST(RecoveryManagerTest, FreshStorageRecoversNothing) {
  RecoveryManager manager(std::make_shared<storage::MemoryLedgerStorage>(),
                          std::make_shared<MemoryWal>());
  auto recovered =
      manager.recover([] { return std::make_unique<harness::FastKvService>(); });
  EXPECT_FALSE(recovered.has_value());
}

TEST(RecoveryManagerTest, ReplaysLedgerFromGenesis) {
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= 4; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, 0, 100, s)));
  }
  RecoveryManager manager(ledger, nullptr);
  auto recovered =
      manager.recover([] { return std::make_unique<harness::FastKvService>(); });
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->last_executed, 4u);
  EXPECT_EQ(recovered->last_stable, 0u);
  ASSERT_EQ(recovered->replayed.size(), 4u);
  // The chained digest d_s links back to genesis.
  EXPECT_EQ(recovered->replayed[0].cert.prev_exec_digest, genesis_exec_digest());
  for (SeqNum s = 1; s <= 4; ++s) {
    EXPECT_EQ(recovered->exec_digests.at(s), recovered->replayed[s - 1].cert.exec_digest());
    if (s > 1) {
      EXPECT_EQ(recovered->replayed[s - 1].cert.prev_exec_digest,
                recovered->exec_digests.at(s - 1));
    }
  }
  // Service state matches the final certificate's state root.
  EXPECT_EQ(recovered->service->state_digest(), recovered->replayed.back().cert.state_root);
  EXPECT_GT(recovered->replayed_bytes, 0u);
}

TEST(RecoveryManagerTest, SnapshotPlusSuffixMatchesFullReplay) {
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= 6; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, 0, 7, s)));
  }
  auto factory = [] { return std::make_unique<harness::FastKvService>(); };

  // Full replay to establish the reference chain.
  RecoveryManager full(ledger, nullptr);
  auto reference = full.recover(factory);
  ASSERT_TRUE(reference.has_value());

  // Replay 1..3 once, checkpoint there, and recover from snapshot + suffix.
  RecoveryManager prefix(ledger, nullptr);
  auto half = prefix.recover(factory);
  ASSERT_TRUE(half.has_value());
  auto wal = std::make_shared<MemoryWal>();
  ExecCertificate cp = half->replayed[2].cert;  // seq 3
  // Rebuild the service up to seq 3 to snapshot it, cache riding along in
  // the checkpoint envelope.
  auto service3 = factory();
  runtime::ReplyCache cache3;
  for (SeqNum s = 1; s <= 3; ++s) {
    const Request& req = half->replayed[s - 1].block.requests[0];
    cache3.store(req.client, req.timestamp, s, 0,
                 service3->execute(as_span(req.op)));
  }
  wal->record_checkpoint(cp, as_span(runtime::encode_checkpoint_snapshot(
                                 as_span(service3->snapshot()), cache3)));
  wal->record_view(0);

  RecoveryManager from_snapshot(ledger, wal);
  auto recovered = from_snapshot.recover(factory);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->last_stable, 3u);
  EXPECT_EQ(recovered->last_executed, 6u);
  EXPECT_EQ(recovered->replayed.size(), 3u);  // only the suffix re-executed
  EXPECT_EQ(recovered->exec_digests.at(6), reference->exec_digests.at(6));
  EXPECT_EQ(recovered->service->state_digest(), reference->service->state_digest());
  // The recovered reply cache spans checkpoint + suffix.
  ASSERT_NE(recovered->reply_cache.find(7), nullptr);
  EXPECT_EQ(recovered->reply_cache.find(7)->timestamp, 6u);
}

TEST(RecoveryManagerTest, BareWalSnapshotAbortsRecovery) {
  // A WAL checkpoint carrying a raw service snapshot instead of the envelope
  // (no reply cache, no magic) is refused like a corrupt one, even though
  // its service state matches the certified root: the replica boots fresh
  // and relies on state transfer.
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= 4; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, 0, 9, s)));
  }
  auto factory = [] { return std::make_unique<harness::FastKvService>(); };
  RecoveryManager prefix(ledger, nullptr);
  auto half = prefix.recover(factory);
  ASSERT_TRUE(half.has_value());
  auto service2 = factory();
  for (SeqNum s = 1; s <= 2; ++s) {
    service2->execute(as_span(half->replayed[s - 1].block.requests[0].op));
  }
  auto wal = std::make_shared<MemoryWal>();
  wal->record_checkpoint(half->replayed[1].cert, as_span(service2->snapshot()));

  RecoveryManager manager(ledger, wal);
  EXPECT_FALSE(manager.recover(factory).has_value());
}

TEST(RecoveryManagerTest, CorruptSnapshotAbortsRecovery) {
  auto wal = std::make_shared<MemoryWal>();
  ExecCertificate cp = make_cert(4);  // state_root matches nothing
  wal->record_checkpoint(cp, as_span(to_bytes("not-a-snapshot")));
  RecoveryManager manager(nullptr, wal);
  auto recovered =
      manager.recover([] { return std::make_unique<harness::FastKvService>(); });
  EXPECT_FALSE(recovered.has_value());  // boot fresh, rely on state transfer
}

TEST(RecoveryManagerTest, SurfacesInFlightVotes) {
  auto wal = std::make_shared<MemoryWal>();
  wal->record_view(1);
  wal->record_vote(2, 1, digest_of(0x02));
  RecoveryManager manager(std::make_shared<storage::MemoryLedgerStorage>(), wal);
  auto recovered =
      manager.recover([] { return std::make_unique<harness::FastKvService>(); });
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->view, 1u);
  ASSERT_EQ(recovered->votes.size(), 1u);
  EXPECT_EQ(recovered->votes[0].seq, 2u);
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
