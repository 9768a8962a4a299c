// Figure 3 reproduction: latency vs throughput curves (one point per client
// count) for the five protocols, same six panels as Figure 2.
#include <cstdio>
#include <vector>

#include "harness/experiment.h"

using namespace sbft;
using namespace sbft::harness;

namespace {

struct ProtocolSpec {
  ProtocolKind kind;
  uint32_t c;
  const char* label;
};

const ProtocolSpec kProtocols[] = {
    {ProtocolKind::kPbft, 0, "PBFT"},
    {ProtocolKind::kLinearPbft, 0, "Linear-PBFT"},
    {ProtocolKind::kLinearPbftFast, 0, "Linear-PBFT+Fast"},
    {ProtocolKind::kSbft, 0, "SBFT(c=0)"},
    {ProtocolKind::kSbft, 8, "SBFT(c=8)"},
};

}  // namespace

int main() {
  const uint32_t f = 64;
  const std::vector<uint32_t> clients = bench_client_grid();
  const std::vector<uint32_t> failures = {0, 8, 64};
  const std::vector<uint32_t> batches = {64, 1};

  std::printf("=== Figure 3: latency vs throughput — f=%u, continent WAN ===\n",
              f);
  std::printf("each series lists (throughput ops/s -> median/p99 latency ms) "
              "per client count %s\n\n",
              bench_full_mode() ? "{4,32,64,128,192,256}" : "{4,64,256}");

  for (uint32_t batch : batches) {
    for (uint32_t crashed : failures) {
      std::printf("--- panel: %s, %u failures ---\n",
                  batch > 1 ? "batch=64" : "no batch", crashed);
      for (const ProtocolSpec& proto : kProtocols) {
        std::printf("%-18s", proto.label);
        for (uint32_t num_clients : clients) {
          ExperimentPoint point;
          point.kind = proto.kind;
          point.f = f;
          point.c = proto.c;
          point.num_clients = num_clients;
          point.ops_per_request = batch;
          point.crash_replicas = crashed;
          point.warmup_us = 800'000;
          point.measure_us = bench_full_mode() ? 4'000'000 : 1'200'000;
          ExperimentResult r = run_point(point);
          std::printf("  (%7.0f -> %5.0f/%5.0fms)", r.metrics.ops_per_second,
                      r.metrics.latency.median_ms, r.metrics.latency.p99_ms);
          std::fflush(stdout);
        }
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
  std::printf("Paper shape to match: SBFT sits below-and-right of PBFT "
              "(more throughput at lower latency); the fast path cuts "
              "latency vs Linear-PBFT in failure-free panels.\n");
  return 0;
}
