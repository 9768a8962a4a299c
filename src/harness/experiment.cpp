#include "harness/experiment.h"

#include <cstdlib>

namespace sbft::harness {

bool bench_full_mode() {
  const char* env = std::getenv("SBFT_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

std::vector<uint32_t> bench_client_grid() {
  if (bench_full_mode()) return {4, 32, 64, 128, 192, 256};
  return {4, 64, 256};
}

ExperimentResult run_point(const ExperimentPoint& point) {
  ClusterOptions opts;
  opts.kind = point.kind;
  opts.f = point.f;
  opts.c = point.c;
  opts.num_clients = point.num_clients;
  opts.requests_per_client = 0;  // run for the whole window
  opts.topology = point.topology.region_latency_us.empty() ? sim::continent_topology()
                                                           : point.topology;
  opts.seed = point.seed;
  opts.crash_replicas = point.crash_replicas;
  opts.straggler_replicas = point.straggler_replicas;
  opts.cores_per_replica = point.cores;
  KvWorkloadOptions workload;
  workload.ops_per_request = point.ops_per_request;
  opts.op_factory = kv_op_factory(workload);
  if (point.window > 0 || point.max_batch > 0 || point.adaptive >= 0) {
    uint64_t win = point.window;
    uint32_t max_batch = point.max_batch;
    int adaptive = point.adaptive;
    opts.tweak_config = [win, max_batch, adaptive](ProtocolConfig& cfg) {
      if (win > 0) cfg.win = win;
      if (max_batch > 0) cfg.max_batch = max_batch;
      if (adaptive >= 0) cfg.adaptive_batching = adaptive != 0;
    };
  }
  if (point.tweak) point.tweak(opts);

  Cluster cluster(std::move(opts));
  cluster.run_for(point.warmup_us);
  sim::SimTime from = cluster.simulator().now();
  cluster.run_for(point.measure_us);
  sim::SimTime to = cluster.simulator().now();

  ExperimentResult result;
  result.metrics = collect_metrics(cluster, from, to, point.ops_per_request);
  result.agreement_ok = cluster.check_agreement();
  result.sim_events = cluster.simulator().events_processed();
  return result;
}

}  // namespace sbft::harness
