// Crash-and-recover walkthrough (§VIII durability): a 4-replica cluster
// under client load loses a backup, restarts it from its surviving WAL +
// ledger, and the replica rejoins; then the same replica loses its disk
// entirely and comes back through state transfer; finally it crashes again
// *briefly* with its disk intact and rejoins through a delta transfer —
// fetching only the chunks that changed since the checkpoint it already
// holds, and reporting the bytes that stayed off the wire. The whole
// scenario runs twice — once on SBFT, once on the PBFT baseline — through
// the identical Cluster API, because both ordering engines share the
// replica runtime.
//
// Exits non-zero when, on either engine, the agreement audit fails, the WAL
// restart recovers nothing (no recovery, or no ledger block replayed), or
// replica 3 does not catch back up with the cluster after it.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness/cluster.h"
#include "harness/workload.h"
#include "kv/kv_service.h"

using namespace sbft;
using namespace sbft::harness;

namespace {

void print_state(Cluster& cluster, const char* label) {
  std::printf("--- %s (t = %.1fs)\n", label,
              static_cast<double>(cluster.simulator().now()) / 1e6);
  for (ReplicaId r = 1; r <= cluster.n(); ++r) {
    const ReplicaHandle& rep = cluster.replica(r);
    const runtime::RuntimeStats& rt = rep.runtime_stats();
    std::printf("  replica %u: view=%llu last_executed=%llu recoveries=%llu "
                "replayed=%llu state_transfers=%llu cache_hits=%llu%s\n",
                r, static_cast<unsigned long long>(rep.view()),
                static_cast<unsigned long long>(rep.last_executed()),
                static_cast<unsigned long long>(rt.recoveries),
                static_cast<unsigned long long>(rt.blocks_replayed),
                static_cast<unsigned long long>(rt.state_transfers),
                static_cast<unsigned long long>(rt.reply_cache_hits),
                cluster.network().crashed(rep.node()) ? "  [crashed]" : "");
  }
}

/// True when `r` has executed (within the blocks still in flight) as far as
/// every other replica.
bool caught_up(Cluster& cluster, ReplicaId r) {
  SeqNum cluster_le = 0;
  for (ReplicaId other = 1; other <= cluster.n(); ++other) {
    if (other != r) {
      cluster_le = std::max(cluster_le, cluster.replica(other).last_executed());
    }
  }
  return cluster.replica(r).last_executed() + 2 >= cluster_le;
}

/// Runs the walkthrough on one engine; false when any of its checks failed.
bool run_scenario(ProtocolKind kind) {
  std::printf("=== %s crash recovery: WAL + ledger replay, then disk loss + "
              "state transfer ===\n\n",
              protocol_name(kind));
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 4;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 42;
  // Real (multi-hundred-KB) KV state with a small hot set, so while replica
  // 3 is briefly down only a sliver of the state changes and the delta
  // rejoin has something to show.
  opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
  opts.op_factory = hot_range_kv_op_factory(/*key_space=*/2048, /*hot=*/32,
                                            /*value_size=*/256,
                                            /*ops_per_request=*/16);
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.state_transfer_chunk_size = 1024;  // fine-grained deltas
  };
  Cluster cluster(std::move(opts));

  cluster.run_for(2'000'000);
  print_state(cluster, "steady state");

  std::printf("\n>>> killing replica 3\n");
  cluster.crash_replica(3);
  cluster.run_for(3'000'000);
  print_state(cluster, "replica 3 down: the remaining 2f+1 carry on");

  std::printf("\n>>> restarting replica 3 from its WAL + ledger\n");
  cluster.restart_replica(3);
  cluster.run_for(4'000'000);
  print_state(cluster, "replica 3 recovered (note recoveries/replayed) and "
                       "rejoined");
  bool ok = true;
  const runtime::RuntimeStats& restarted = cluster.replica(3).runtime_stats();
  if (restarted.recoveries == 0 || restarted.blocks_replayed == 0) {
    std::printf("FAIL: the WAL restart recovered nothing (recoveries=%llu, "
                "replayed=%llu)\n",
                static_cast<unsigned long long>(restarted.recoveries),
                static_cast<unsigned long long>(restarted.blocks_replayed));
    ok = false;
  }
  if (!caught_up(cluster, 3)) {
    std::printf("FAIL: replica 3 did not rejoin after the WAL restart\n");
    ok = false;
  }

  std::printf("\n>>> killing replica 3 again and wiping its disk\n");
  cluster.crash_replica(3);
  cluster.run_for(3'000'000);
  cluster.restart_replica(3, /*wipe_storage=*/true);
  cluster.run_for(5'000'000);
  print_state(cluster, "replica 3 rebuilt from a peer's checkpoint "
                       "(state_transfers > 0, recoveries stays 0)");
  uint64_t full_rejoin_bytes =
      cluster.replica(3).runtime_stats().state_transfer_bytes_transferred;

  std::printf("\n>>> killing replica 3 briefly (disk intact) — it rejoins via "
              "a DELTA transfer\n");
  cluster.crash_replica(3);
  cluster.run_for(1'500'000);  // the cluster seals a few more checkpoints
  cluster.restart_replica(3);
  cluster.run_for(4'000'000);
  print_state(cluster, "replica 3 back: it advertised the checkpoint it "
                       "already held, seeded the unchanged chunks locally and "
                       "fetched only the delta");
  const runtime::RuntimeStats& rt = cluster.replica(3).runtime_stats();
  std::printf("\n  wiped rejoin fetched %llu bytes over the wire;\n"
              "  delta rejoin fetched %llu bytes and seeded %llu chunks "
              "(%llu bytes) from the local snapshot\n",
              static_cast<unsigned long long>(full_rejoin_bytes),
              static_cast<unsigned long long>(rt.state_transfer_bytes_transferred),
              static_cast<unsigned long long>(rt.delta_chunks_skipped),
              static_cast<unsigned long long>(rt.delta_bytes_saved));

  bool agreed = cluster.check_agreement();
  std::printf("\nagreement audit: %s\n",
              agreed ? "OK (Theorem VI.1 holds)" : "VIOLATED");
  std::printf("total WAL bytes written across the cluster: %llu\n\n",
              static_cast<unsigned long long>(cluster.total_wal_bytes_written()));
  return ok && agreed;
}

}  // namespace

int main() {
  bool sbft_ok = run_scenario(ProtocolKind::kSbft);
  bool pbft_ok = run_scenario(ProtocolKind::kPbft);
  return sbft_ok && pbft_ok ? 0 : 1;
}
