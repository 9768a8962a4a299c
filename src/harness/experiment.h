// Experiment runner shared by the benchmark binaries: configures a cluster
// for one (protocol, clients, failures, batching) point, runs warmup +
// measurement windows of simulated time, and returns the paper-style row.
#pragma once

#include <string>

#include "harness/cluster.h"
#include "harness/metrics.h"

namespace sbft::harness {

struct ExperimentPoint {
  ProtocolKind kind = ProtocolKind::kSbft;
  uint32_t f = 64;
  uint32_t c = 0;
  uint32_t num_clients = 4;
  uint32_t ops_per_request = 1;   // 64 = the paper's batching mode
  uint32_t cores = 0;      // CPU lanes per replica; 0 = cost-model default (1)
  uint64_t window = 0;     // ProtocolConfig::win override; 0 = keep default
  uint32_t max_batch = 0;  // ProtocolConfig::max_batch override; 0 = default
  // ProtocolConfig::adaptive_batching override: -1 = keep default, 0 = force
  // static max_batch blocks, 1 = force the §VIII adaptive controller.
  int adaptive = -1;
  uint32_t crash_replicas = 0;
  uint32_t straggler_replicas = 0;
  sim::SimTime warmup_us = 1'000'000;
  sim::SimTime measure_us = 4'000'000;
  uint64_t seed = 7;
  sim::Topology topology;  // defaults to continent scale
  std::function<void(ClusterOptions&)> tweak;  // optional extra configuration
};

struct ExperimentResult {
  RunMetrics metrics;
  bool agreement_ok = true;
  uint64_t sim_events = 0;
};

ExperimentResult run_point(const ExperimentPoint& point);

/// True when SBFT_BENCH_FULL=1: run the paper's full sweeps instead of the
/// reduced default grid.
bool bench_full_mode();

/// Reduced/full client-count grid for fig2/fig3 (paper: 4..256).
std::vector<uint32_t> bench_client_grid();

}  // namespace sbft::harness
