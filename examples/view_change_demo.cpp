// View-change demo (§V-G): commit traffic in view 0, crash the primary, and
// watch the cluster elect view 1 and resume — including re-committing any
// value that might have been decided. The scenario runs twice, on SBFT's
// dual-mode view change and on the PBFT baseline's, through the identical
// Cluster API.
//
// Exits non-zero when, on either engine, the clients do not finish or the
// agreement audit fails.
//
//   $ ./examples/view_change_demo
#include <algorithm>
#include <cstdio>

#include "harness/cluster.h"

using namespace sbft;
using namespace sbft::harness;

namespace {

/// Runs the demo on one engine; false when its clients stalled or its
/// replicas disagree.
bool run_demo(ProtocolKind kind) {
  std::printf("=== %s view change ===\n", protocol_name(kind));
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.c = 0;
  opts.num_clients = 2;
  opts.requests_per_client = 150;
  opts.topology = sim::lan_topology();

  Cluster cluster(std::move(opts));
  std::printf("n=%u cluster; primary of view 0 is replica 1\n", cluster.n());

  cluster.run_for(300'000);
  std::printf("t=%.1fs: view-0 progress: replica 2 executed %llu blocks\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(cluster.replica(2).last_executed()));

  std::printf("t=%.1fs: crashing the primary (replica 1)\n",
              cluster.simulator().now() / 1e6);
  cluster.crash_replica(1);

  bool done = cluster.run_until_done(600'000'000);
  ViewNum view = 0;
  for (ReplicaId r = 2; r <= cluster.n(); ++r) {
    view = std::max(view, cluster.replica(r).view());
  }
  std::printf("t=%.1fs: cluster now in view %llu (new primary: replica %u), "
              "view changes observed: %llu\n",
              cluster.simulator().now() / 1e6,
              static_cast<unsigned long long>(view),
              cluster.config().primary_of(view),
              static_cast<unsigned long long>(cluster.total_view_changes()));

  uint64_t completed = 0;
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    completed += cluster.client(i).completed();
  }
  std::printf("clients completed %llu/300 requests across the view change: %s\n",
              static_cast<unsigned long long>(completed),
              done ? "all done" : "INCOMPLETE");

  bool agree = cluster.check_agreement();
  std::printf("agreement audit across views (Theorem VI.1): %s\n\n",
              agree ? "OK" : "VIOLATED");
  return agree && done;
}

}  // namespace

int main() {
  bool sbft_ok = run_demo(ProtocolKind::kSbft);
  bool pbft_ok = run_demo(ProtocolKind::kPbft);
  return sbft_ok && pbft_ok ? 0 : 1;
}
