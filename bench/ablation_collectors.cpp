// Ablation: redundant collectors (ingredient 4). Sweeps c under straggler
// faults, showing how c+1 collectors keep the fast path alive and improve
// the latency/throughput trade-off — the paper's heuristic is c <= f/8 (§I).
#include <cstdio>
#include <vector>

#include "harness/experiment.h"

using namespace sbft;
using namespace sbft::harness;

int main() {
  const bool full = bench_full_mode();
  const uint32_t f = full ? 64 : 16;
  std::vector<uint32_t> cs = full ? std::vector<uint32_t>{0, 1, 2, 8, 16}
                                  : std::vector<uint32_t>{0, 1, 2, 4};

  std::printf("=== Ablation: redundant servers/collectors (c sweep), f=%u, "
              "continent WAN ===\n\n", f);
  std::printf("%6s %6s %10s %14s %14s %12s %12s\n", "c", "n", "stragglers",
              "ops/s", "median ms", "fast", "slow");

  for (uint32_t stragglers : {0u, 2u}) {
    for (uint32_t c : cs) {
      ExperimentPoint point;
      point.kind = ProtocolKind::kSbft;
      point.f = f;
      point.c = c;
      point.num_clients = 64;
      point.ops_per_request = 64;
      point.straggler_replicas = stragglers;
      point.warmup_us = 1'000'000;
      point.measure_us = full ? 4'000'000 : 2'000'000;
      ExperimentResult r = run_point(point);
      std::printf("%6u %6u %10u %14.0f %14.0f %12llu %12llu%s\n", c,
                  3 * f + 2 * c + 1, stragglers, r.metrics.ops_per_second,
                  r.metrics.latency.median_ms,
                  static_cast<unsigned long long>(r.metrics.counter("fast_commits")),
                  static_cast<unsigned long long>(r.metrics.counter("slow_commits")),
                  r.agreement_ok ? "" : "  !!AGREEMENT VIOLATION!!");
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Expected: with stragglers, c=0 falls off the fast path (slow "
              "commits dominate, latency jumps); small c restores it at "
              "modest extra replication.\n");
  return 0;
}
