// Observability pillar tests (docs/observability.md): Tracer ring-buffer
// semantics, histogram/registry behaviour, TraceChecker invariants on
// hand-built streams, and trace-driven invariant checking on real
// cross-protocol cluster scenarios — including the negative cases where a
// fault must leave its detection events in the trace.
#include <gtest/gtest.h>

#include <memory>

#include "harness/cluster.h"
#include "kv/kv_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_checker.h"
#include "obs/trace_export.h"

namespace sbft {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::ProtocolKind;

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, RingBufferKeepsMostRecentAndCountsDrops) {
  obs::Tracer t(/*replica=*/1, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    t.instant(i, obs::Category::kSlot, obs::ev::kExecute, 0, /*seq=*/i + 1);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  auto events = t.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: events 3..6 survive, 1 and 2 were evicted.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 3);
    EXPECT_EQ(events[i].ts_us, static_cast<int64_t>(i + 2));
  }
}

TEST(Tracer, DisabledTracerIsInertAndNopIsShared) {
  obs::Tracer off;
  EXPECT_FALSE(off.enabled());
  off.instant(1, obs::Category::kSlot, obs::ev::kExecute);
  off.begin(2, obs::Category::kViewChange, obs::ev::kViewChange, 1);
  EXPECT_EQ(off.size(), 0u);
  EXPECT_EQ(off.dropped(), 0u);
  EXPECT_TRUE(off.events().empty());

  obs::Tracer& nop = obs::Tracer::nop();
  EXPECT_FALSE(nop.enabled());
  nop.instant(1, obs::Category::kSlot, obs::ev::kExecute);
  EXPECT_EQ(nop.size(), 0u);
  EXPECT_EQ(&nop, &obs::Tracer::nop());
}

// ---------------------------------------------------------------------------
// Histogram + MetricsRegistry

TEST(Histogram, PercentilesWithinHdrErrorBound) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(0.5), 0);
  for (int i = 0; i < 1000; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(10'000);
  EXPECT_EQ(h.count(), 1010u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 10'000);
  // kSubBits = 3 bounds relative quantile error at 12.5%.
  EXPECT_GE(h.percentile(0.5), 100);
  EXPECT_LE(h.percentile(0.5), 113);
  EXPECT_GE(h.percentile(0.999), 8'000);
  EXPECT_LE(h.percentile(0.999), 10'000);
  EXPECT_NEAR(h.mean(), (1000.0 * 100 + 10 * 10'000) / 1010.0, 1.0);
}

TEST(Histogram, MergeCombinesSamples) {
  obs::Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(50);
  for (int i = 0; i < 100; ++i) b.record(5'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 50);
  EXPECT_EQ(a.max(), 5'000);
  EXPECT_GE(a.percentile(0.9), 4'000);
}

TEST(MetricsRegistry, CountersMergeAndJson) {
  obs::MetricsRegistry r;
  r.counter("fast_commits") = 7;
  r.add("fast_commits", 3);
  EXPECT_EQ(r.value("fast_commits"), 10u);
  EXPECT_EQ(r.value("never_touched"), 0u);
  r.histogram("stage.pp_to_commit_us").record(250);

  obs::MetricsRegistry other;
  other.counter("fast_commits") = 5;
  other.counter("slow_commits") = 2;
  other.histogram("stage.pp_to_commit_us").record(750);
  r.merge(other);
  EXPECT_EQ(r.value("fast_commits"), 15u);
  EXPECT_EQ(r.value("slow_commits"), 2u);
  EXPECT_EQ(r.histogram("stage.pp_to_commit_us").count(), 2u);

  std::string json = r.to_json();
  EXPECT_NE(json.find("\"fast_commits\":15"), std::string::npos);
  EXPECT_NE(json.find("\"slow_commits\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stage.pp_to_commit_us\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceChecker on hand-built streams

obs::TraceEvent exec_event(uint64_t seq, uint64_t digest) {
  obs::TraceEvent e;
  e.name = obs::ev::kExecute;
  e.category = obs::Category::kSlot;
  e.seq = seq;
  e.arg_name = "digest";
  e.arg = digest;
  return e;
}

obs::TraceEvent named_event(obs::Category cat, const char* name,
                            uint64_t seq = 0, uint64_t arg = 0) {
  obs::TraceEvent e;
  e.name = name;
  e.category = cat;
  e.seq = seq;
  e.arg = arg;
  return e;
}

TEST(TraceChecker, AgreeingStreamsPass) {
  obs::TraceChecker checker;
  checker.add_replica(1, {exec_event(1, 0xaa), exec_event(2, 0xbb)});
  checker.add_replica(2, {exec_event(1, 0xaa), exec_event(2, 0xbb)});
  obs::CheckReport report = checker.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.events_checked, 4u);
}

TEST(TraceChecker, DivergentDigestIsAgreementViolation) {
  obs::TraceChecker checker;
  checker.add_replica(1, {exec_event(1, 0xaa)});
  checker.add_replica(2, {exec_event(1, 0xcc)});
  obs::CheckReport report = checker.run();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("agreement broken"), std::string::npos);
}

TEST(TraceChecker, DoubleExecutionFlaggedButRestartResetsCursor) {
  obs::TraceChecker bad;
  bad.add_replica(1, {exec_event(1, 0xaa), exec_event(1, 0xaa)});
  EXPECT_FALSE(bad.run().ok());

  // A wiped restart legitimately re-executes earlier sequences.
  obs::TraceChecker restarted;
  restarted.add_replica(
      1, {exec_event(1, 0xaa), exec_event(2, 0xbb),
          named_event(obs::Category::kSlot, obs::ev::kReplicaRestarted),
          exec_event(1, 0xaa), exec_event(2, 0xbb)});
  obs::CheckReport report = restarted.run();
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TraceChecker, FastCommitNeedsQuorumProof) {
  // The proof event may live in a different stream (the collector's) than
  // the commit; 3 shares do not justify a fast quorum of 4.
  obs::TraceChecker checker(/*fast_quorum=*/4);
  checker.add_replica(
      1, {named_event(obs::Category::kSlot, obs::ev::kFastProofFormed, 1, 4),
          named_event(obs::Category::kSlot, obs::ev::kFastProofFormed, 2, 3)});
  checker.add_replica(
      2, {named_event(obs::Category::kSlot, obs::ev::kCommitFast, 1),
          named_event(obs::Category::kSlot, obs::ev::kCommitFast, 2)});
  obs::CheckReport report = checker.run();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("seq 2"), std::string::npos);
}

TEST(TraceChecker, UnterminatedStateTransferSessionFlagged) {
  obs::TraceEvent begin;
  begin.name = obs::ev::kStateTransfer;
  begin.category = obs::Category::kStateTransfer;
  begin.phase = obs::EventPhase::kBegin;
  begin.span = 1;
  obs::TraceEvent end = begin;
  end.phase = obs::EventPhase::kEnd;

  obs::TraceChecker open;
  open.add_replica(1, {begin});
  EXPECT_FALSE(open.run().ok());

  obs::TraceChecker closed;
  closed.add_replica(1, {begin, end});
  EXPECT_TRUE(closed.run().ok());
}

TEST(TraceChecker, TruncatedStreamSkipsSpanChecksWithNote) {
  obs::TraceEvent begin;
  begin.name = obs::ev::kStateTransfer;
  begin.category = obs::Category::kStateTransfer;
  begin.phase = obs::EventPhase::kBegin;
  begin.span = 1;
  obs::TraceChecker checker;
  checker.add_replica(1, {begin}, /*dropped=*/10);
  obs::CheckReport report = checker.run();
  EXPECT_TRUE(report.ok()) << report.summary();  // skipped, not violated
  EXPECT_FALSE(report.notes.empty());
}

// ---------------------------------------------------------------------------
// Trace-driven invariant checking on real cluster scenarios

ClusterOptions traced_cluster(ProtocolKind kind, uint64_t seed) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.num_clients = 3;
  opts.requests_per_client = 20;
  opts.topology = sim::lan_topology();
  opts.seed = seed;
  opts.tracing = true;
  return opts;
}

obs::TraceChecker make_counter(const Cluster& cluster) {
  obs::TraceChecker checker;
  for (ReplicaId r = 1; r <= cluster.num_replicas(); ++r) {
    const harness::ReplicaHandle& h = cluster.replica(r);
    if (h.tracer()) checker.add_replica(r, h.tracer()->events(), h.tracer()->dropped());
  }
  return checker;
}

TEST(TracedScenarios, SbftFastPathRunPassesChecker) {
  Cluster cluster(traced_cluster(ProtocolKind::kSbft, 21));
  ASSERT_TRUE(cluster.run_until_done(60'000'000));
  obs::CheckReport report = cluster.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.events_checked, 0u);

  obs::TraceChecker counter = make_counter(cluster);
  EXPECT_GT(counter.count(obs::Category::kSlot, obs::ev::kCommitFast), 0u);
  EXPECT_GT(counter.count(obs::Category::kSlot, obs::ev::kFastProofFormed), 0u);
  EXPECT_GT(counter.count(obs::Category::kSlot, obs::ev::kExecute), 0u);
}

TEST(TracedScenarios, PbftRunPassesChecker) {
  Cluster cluster(traced_cluster(ProtocolKind::kPbft, 22));
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  obs::CheckReport report = cluster.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();

  obs::TraceChecker counter = make_counter(cluster);
  EXPECT_GT(counter.count(obs::Category::kSlot, obs::ev::kCommitSlow), 0u);
  EXPECT_EQ(counter.count(obs::Category::kSlot, obs::ev::kCommitFast), 0u);
}

TEST(TracedScenarios, LinearPbftRunPassesChecker) {
  Cluster cluster(traced_cluster(ProtocolKind::kLinearPbft, 23));
  ASSERT_TRUE(cluster.run_until_done(120'000'000));
  obs::CheckReport report = cluster.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();

  obs::TraceChecker counter = make_counter(cluster);
  EXPECT_GT(counter.count(obs::Category::kSlot, obs::ev::kSlowProofFormed), 0u);
}

TEST(TracedScenarios, WipedRestartLeavesStateTransferSession) {
  auto opts = traced_cluster(ProtocolKind::kSbft, 24);
  opts.requests_per_client = 0;  // free-running
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'000'000);
  cluster.crash_replica(3);
  cluster.run_for(300'000);
  cluster.restart_replica(3, /*wipe_storage=*/true);
  for (int i = 0; i < 600 && cluster.replica(3).last_executed() == 0; ++i) {
    cluster.run_for(50'000);
  }
  ASSERT_GT(cluster.replica(3).last_executed(), 0u);
  cluster.run_for(2'000'000);  // settle so no session is mid-flight

  obs::CheckReport report = cluster.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();
  obs::TraceChecker counter = make_counter(cluster);
  EXPECT_GT(counter.count(obs::Category::kStateTransfer, obs::ev::kStateTransfer),
            0u);
  EXPECT_GT(counter.count(obs::Category::kStateTransfer, obs::ev::kStAdopt), 0u);
  EXPECT_GT(counter.count(obs::Category::kSlot, obs::ev::kReplicaRestarted), 0u);
}

TEST(TracedScenarios, CorruptChunkDonorLeavesDetectionEvents) {
  auto opts = traced_cluster(ProtocolKind::kSbft, 25);
  opts.requests_per_client = 0;  // free-running
  opts.num_clients = 2;
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  harness::KvWorkloadOptions kv;
  kv.value_size = 512;
  opts.op_factory = harness::kv_op_factory(kv);
  opts.corrupt_chunk_replicas = {2};
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'500'000);
  cluster.crash_replica(4);
  cluster.run_for(300'000);
  cluster.restart_replica(4, /*wipe_storage=*/true);
  for (int i = 0; i < 600 && cluster.replica(4).last_stable() == 0; ++i) {
    cluster.run_for(50'000);
  }
  ASSERT_GT(cluster.replica(4).last_stable(), 0u) << "wiped replica stuck";
  cluster.run_for(2'000'000);

  // The Merkle rejection of the corrupt donor's chunks must be visible in
  // the trace, and the run must still satisfy every invariant.
  obs::TraceChecker counter = make_counter(cluster);
  EXPECT_GT(counter.count(obs::Category::kStateTransfer, obs::ev::kStChunkInvalid),
            0u);
  obs::CheckReport report = cluster.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TracedScenarios, FabricatedCheckpointLeavesRejectionEvents) {
  auto opts = traced_cluster(ProtocolKind::kPbft, 67);
  opts.requests_per_client = 0;  // free-running
  opts.num_clients = 2;
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  harness::KvWorkloadOptions kv;
  kv.value_size = 256;
  kv.key_space = 1024;
  opts.op_factory = harness::kv_op_factory(kv);
  opts.fabricate_checkpoint_replicas = {2};
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'500'000);
  ASSERT_GT(cluster.replica(1).last_stable(), 0u) << "no checkpoint formed";
  cluster.crash_replica(4);
  cluster.run_for(300'000);
  cluster.restart_replica(4, /*wipe_storage=*/true);
  for (int i = 0; i < 600 && cluster.replica(4).last_stable() == 0; ++i) {
    cluster.run_for(50'000);
  }
  ASSERT_GT(cluster.replica(4).last_stable(), 0u) << "wiped replica stuck";
  cluster.run_for(2'000'000);

  // The quorum-certificate rejection of the fabricated checkpoint must be
  // visible in the trace.
  obs::TraceChecker counter = make_counter(cluster);
  EXPECT_GT(counter.count(obs::Category::kStateTransfer, obs::ev::kStCertRejected),
            0u);
  obs::CheckReport report = cluster.check_trace();
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(TraceExport, EmitsWellFormedSpansAndMetadata) {
  obs::Tracer t(/*replica=*/3, /*capacity=*/64);
  t.begin(100, obs::Category::kViewChange, obs::ev::kViewChange, /*span=*/1, 0, 1);
  t.instant(150, obs::Category::kViewChange, obs::ev::kNewViewSent, 1, 0, 1);
  t.end(200, obs::Category::kViewChange, obs::ev::kViewChange, 1, 0, 1,
        "entered_view", 1);
  std::string json = obs::chrome_trace_json({&t});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"viewchange\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"r3:viewchange:1\""), std::string::npos);
  EXPECT_NE(json.find("\"entered_view\":1"), std::string::npos);
}

}  // namespace
}  // namespace sbft
