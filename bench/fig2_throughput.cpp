// Figure 2 and Figure 3 reproduction: throughput (operations/second) and
// median/p99 latency vs number of clients, for the five protocols, in six
// panels: {no failures, 8 failures, 64 failures} x {batch=64, no batching}.
// Each point is simulated once and feeds both figures. All points withstand
// f=64 Byzantine failures on the continent-scale WAN (§IX, "Key-Value
// benchmark").
//
// Also sweeps the multi-core lane model (docs/performance.md): a
// batch x window x cores grid, plus the paper-scale SBFT f=64 pair that
// asserts cores=8 delivers >= 3x the throughput of cores=1 under saturating
// clients (the §VIII parallelized-crypto claim). Every point additionally
// emits one JSON line (grep '^{') with the knobs and the per-lane CPU
// counters; CI runs `--quick` and guards those fields.
//
// Defaults run a reduced-but-representative grid; SBFT_BENCH_FULL=1 runs the
// paper's full client sweep. Every point runs at the current build; no
// result is reused across binaries or builds.
#include <cstdio>
#include <cstring>
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

// Emits one point's JSON line (knobs + lane counters). The JSON reports the
// *effective* window/batch so rows with the 0 = "keep default" sentinel stay
// comparable with explicit overrides.
void emit_json(const ExperimentPoint& point, const char* label,
               const ExperimentResult& r) {
  const obs::MetricsRegistry& reg = r.metrics.registry;
  std::printf(
      "%s\n",
      JsonWriter()
          .field("bench", "fig2_throughput")
          .field("protocol", label)
          .field("f", static_cast<uint64_t>(point.f))
          .field("c", static_cast<uint64_t>(point.c))
          .field("clients", static_cast<uint64_t>(point.num_clients))
          .field("ops_per_request", static_cast<uint64_t>(point.ops_per_request))
          .field("batch", static_cast<uint64_t>(point.max_batch > 0 ? point.max_batch : 64))
          .field("window", static_cast<uint64_t>(point.window > 0 ? point.window : 256))
          .field("cores", static_cast<uint64_t>(point.cores > 0 ? point.cores : 1))
          .field("crash_replicas", static_cast<uint64_t>(point.crash_replicas))
          .field("adaptive", static_cast<int64_t>(point.adaptive))
          .field("requests_per_second", r.metrics.requests_per_second)
          .field("ops_per_second", r.metrics.ops_per_second)
          .field("median_latency_ms", r.metrics.latency.median_ms)
          .field("p99_latency_ms", r.metrics.latency.p99_ms)
          .field("fast_ack_fraction", r.metrics.fast_ack_fraction)
          .field("cpu_lane0_used_us", reg.value("cpu_lane0_used_us"))
          .field("cpu_worker_used_us", reg.value("cpu_worker_used_us"))
          .field("cpu_offloads_run", reg.value("cpu_offloads_run"))
          .field("agreement_ok", static_cast<uint64_t>(r.agreement_ok ? 1 : 0))
          .str()
          .c_str());
  std::fflush(stdout);
}

ExperimentResult run_and_emit(const ExperimentPoint& point, const char* label) {
  ExperimentResult r = run_point(point);
  emit_json(point, label, r);
  return r;
}

void classic_panels() {
  const uint32_t f = 64;
  const std::vector<uint32_t> clients = bench_client_grid();
  const std::vector<uint32_t> failures = {0, 8, 64};
  const std::vector<uint32_t> batches = {64, 1};

  std::printf("each cell: ops/s (median/p99 latency ms)\n\n");
  for (uint32_t batch : batches) {
    for (uint32_t crashed : failures) {
      std::printf("--- panel: %s, %u failures ---\n",
                  batch > 1 ? "batch=64" : "no batch", crashed);
      std::printf("%-18s", "clients");
      for (uint32_t c : clients) std::printf("%24u", c);
      std::printf("\n");
      for (const ProtocolSpec& proto : kProtocols) {
        std::printf("%-18s", proto.label);
        std::vector<std::pair<ExperimentPoint, ExperimentResult>> row;
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
          std::printf("%8.0f (%5.0f/%5.0fms)", r.metrics.ops_per_second,
                      r.metrics.latency.median_ms, r.metrics.latency.p99_ms);
          if (!r.agreement_ok) std::printf("!!AGREEMENT VIOLATION!!");
          std::fflush(stdout);
          row.emplace_back(point, std::move(r));
        }
        std::printf("\n");
        // JSON rows after the text row so the panel table stays readable.
        for (const auto& [point, r] : row) emit_json(point, proto.label, r);
      }
      std::printf("\n");
    }
  }
  std::printf("Paper shape to match (batch=64, no failures, 256 clients): "
              "SBFT ~2x PBFT throughput; fast path > Linear-PBFT > PBFT; "
              "c=8 best under 8 failures. Figure 3: SBFT has more throughput "
              "at lower latency than PBFT; the fast path cuts latency vs "
              "Linear-PBFT in failure-free panels.\n\n");
}

// batch x window x cores grid: how the lane count interacts with pipelining
// (win) and request batching (max_batch). Quick mode shrinks the grid and f
// so CI stays fast; full mode runs f=64 at paper scale.
void cores_grid(bool quick) {
  const uint32_t f = quick ? 4 : 64;
  const uint32_t clients = quick ? 64 : 256;
  std::vector<uint32_t> cores_grid = quick ? std::vector<uint32_t>{1, 2, 8}
                                           : std::vector<uint32_t>{1, 2, 4, 8};
  std::vector<uint32_t> batch_grid = quick ? std::vector<uint32_t>{16, 64}
                                           : std::vector<uint32_t>{8, 16, 64};
  std::vector<uint64_t> window_grid = quick ? std::vector<uint64_t>{64, 256}
                                            : std::vector<uint64_t>{16, 64, 256};

  std::printf("=== Multi-core lanes: batch x window x cores (f=%u, %u clients, "
              "SBFT c=0) ===\n\n", f, clients);
  std::printf("%8s %8s %8s %14s %14s %16s\n", "batch", "window", "cores",
              "ops/s", "median ms", "worker cpu ms");
  for (uint32_t batch : batch_grid) {
    for (uint64_t window : window_grid) {
      for (uint32_t cores : cores_grid) {
        ExperimentPoint point;
        point.kind = ProtocolKind::kSbft;
        point.f = f;
        point.num_clients = clients;
        point.ops_per_request = 1;
        point.max_batch = batch;
        point.window = window;
        point.cores = cores;
        point.warmup_us = 500'000;
        point.measure_us = quick ? 1'000'000 : 2'000'000;
        ExperimentResult r = run_and_emit(point, "SBFT(c=0)");
        std::printf("%8u %8llu %8u %14.0f %14.2f %16.1f\n", batch,
                    static_cast<unsigned long long>(window), cores,
                    r.metrics.ops_per_second, r.metrics.latency.median_ms,
                    static_cast<double>(
                        r.metrics.registry.value("cpu_worker_used_us")) /
                        1000.0);
        std::fflush(stdout);
      }
    }
  }
  std::printf("\n");
}

// The acceptance pair: SBFT at paper scale (f=64, n=193), batch=64,
// saturating closed-loop clients. cores=8 must deliver >= 3x the cores=1
// throughput — the whole point of offloading signature verification to
// worker lanes is that the serial lane stops being the bottleneck.
bool paper_scale_pair(bool quick) {
  const uint32_t kClients = 2048;
  double ops[2] = {0, 0};
  const uint32_t cores_pair[2] = {1, 8};
  std::printf("=== Paper scale: SBFT f=64, batch=64, %u clients, cores 1 vs 8 "
              "===\n\n", kClients);
  std::printf("%8s %14s %14s %16s %16s\n", "cores", "ops/s", "median ms",
              "lane0 cpu ms", "worker cpu ms");
  for (int i = 0; i < 2; ++i) {
    ExperimentPoint point;
    point.kind = ProtocolKind::kSbft;
    point.f = 64;
    point.num_clients = kClients;
    point.ops_per_request = 1;
    point.max_batch = 64;
    point.cores = cores_pair[i];
    point.warmup_us = 600'000;
    point.measure_us = quick ? 1'500'000 : 3'000'000;
    ExperimentResult r = run_and_emit(point, "SBFT(c=0)");
    ops[i] = r.metrics.ops_per_second;
    std::printf("%8u %14.0f %14.2f %16.1f %16.1f\n", cores_pair[i],
                r.metrics.ops_per_second, r.metrics.latency.median_ms,
                static_cast<double>(
                    r.metrics.registry.value("cpu_lane0_used_us")) / 1000.0,
                static_cast<double>(
                    r.metrics.registry.value("cpu_worker_used_us")) / 1000.0);
    std::fflush(stdout);
  }
  double ratio = ops[0] > 0 ? ops[1] / ops[0] : 0;
  std::printf("\ncores=8 / cores=1 throughput ratio: %.2fx (require >= 3x)\n\n",
              ratio);
  if (ratio < 3.0) {
    std::printf("FAIL: multi-core speedup below 3x\n");
    return false;
  }
  return true;
}

// Adaptive vs static batching (§VIII): for each protocol, sweep static batch
// sizes with the controller forced off, then run the adaptive controller with
// the same cap. The controller must land within 10% of the best hand-tuned
// static point — the paper's claim is that the adaptive parameter removes the
// need to tune the batch size per deployment.
bool adaptive_vs_static(bool quick) {
  const uint32_t f = quick ? 4 : 16;
  const uint32_t clients = quick ? 64 : 128;
  const std::vector<uint32_t> static_batches = {1, 16, 64};
  struct Pair { ProtocolKind kind; const char* label; };
  const Pair pairs[] = {
      {ProtocolKind::kSbft, "SBFT(c=0)"},
      {ProtocolKind::kPbft, "PBFT"},
  };

  std::printf("=== Adaptive vs static batching (f=%u, %u clients) ===\n\n", f,
              clients);
  std::printf("%12s %10s %14s %14s\n", "protocol", "batch", "ops/s",
              "median ms");
  bool ok = true;
  for (const Pair& p : pairs) {
    double best_static = 0;
    auto base_point = [&] {
      ExperimentPoint point;
      point.kind = p.kind;
      point.f = f;
      point.num_clients = clients;
      point.ops_per_request = 1;
      point.warmup_us = 500'000;
      point.measure_us = quick ? 1'000'000 : 2'000'000;
      return point;
    };
    for (uint32_t batch : static_batches) {
      ExperimentPoint point = base_point();
      point.max_batch = batch;
      point.adaptive = 0;
      ExperimentResult r = run_and_emit(point, p.label);
      best_static = std::max(best_static, r.metrics.ops_per_second);
      std::printf("%12s %10u %14.0f %14.2f\n", p.label, batch,
                  r.metrics.ops_per_second, r.metrics.latency.median_ms);
    }
    ExperimentPoint point = base_point();
    point.max_batch = 64;
    point.adaptive = 1;
    ExperimentResult r = run_and_emit(point, p.label);
    std::printf("%12s %10s %14.0f %14.2f\n", p.label, "adaptive",
                r.metrics.ops_per_second, r.metrics.latency.median_ms);
    double ratio = best_static > 0 ? r.metrics.ops_per_second / best_static : 0;
    std::printf("%12s adaptive / best-static ratio: %.2fx (require >= 0.9x)\n\n",
                p.label, ratio);
    if (ratio < 0.9) {
      std::printf("FAIL: %s adaptive batching below 0.9x of best static\n",
                  p.label);
      ok = false;
    }
    std::fflush(stdout);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::printf("=== Figures 2 and 3: throughput (ops/s) and latency vs clients "
              "— f=64, continent WAN ===\n");
  std::printf("(reduced grid by default; SBFT_BENCH_FULL=1 for the paper's "
              "full sweep; --quick for the CI subset)\n\n");

  if (!quick) classic_panels();
  cores_grid(quick);
  bool ok = paper_scale_pair(quick);
  ok = adaptive_vs_static(quick) && ok;
  return ok ? 0 : 1;
}
