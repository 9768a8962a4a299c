// Recovery cost (§VIII): how long a restarted replica takes to rebuild its
// state as a function of ledger length — full replay from genesis versus
// snapshot + suffix replay — plus simulated kill-and-restart runs measuring
// the end-to-end rejoin time inside a running cluster for *both* protocols
// (SBFT and the PBFT baseline share the replica runtime, so their recovery
// paths are directly comparable), and a WAL compaction-policy comparison
// that asserts the incremental policy writes fewer bytes than the
// rewrite-everything policy.
//
// Emits one JSON line per measurement (machine-readable) alongside the
// table. Pass --quick for the CI-sized run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>

#include "evm/contracts.h"
#include "harness/cluster.h"
#include "harness/eth_workload.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/workload.h"
#include "kv/kv_service.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal.h"
#include "runtime/snapshot.h"
#include "storage/ledger_storage.h"

using namespace sbft;
using namespace sbft::harness;

namespace {

Bytes encoded_block(SeqNum s, uint32_t ops_per_block) {
  Block block;
  for (uint32_t i = 0; i < ops_per_block; ++i) {
    Request req;
    req.client = 100 + i;
    req.timestamp = s;
    req.op = Bytes(64, static_cast<uint8_t>(s + i));
    block.requests.push_back(std::move(req));
  }
  return encode_message(Message(PrePrepareMsg{s, 0, std::move(block)}));
}

struct ReplayResult {
  double wall_ms = 0;
  uint64_t replayed = 0;
  uint64_t replayed_bytes = 0;
};

ReplayResult measure_replay(uint64_t blocks, bool with_snapshot) {
  auto ledger = std::make_shared<storage::MemoryLedgerStorage>();
  for (SeqNum s = 1; s <= blocks; ++s) {
    ledger->append_block(s, as_span(encoded_block(s, /*ops_per_block=*/4)));
  }
  auto factory = [] { return std::make_unique<FastKvService>(); };
  auto wal = std::make_shared<recovery::MemoryWal>();
  if (with_snapshot) {
    // Checkpoint halfway: replay the prefix once to derive the certificate
    // and the reply cache that rides in the snapshot envelope.
    recovery::RecoveryManager prefix(ledger, nullptr);
    auto state = prefix.recover(factory);
    SeqNum half = blocks / 2;
    auto service = factory();
    runtime::ReplyCache cache;
    for (SeqNum s = 1; s <= half; ++s) {
      for (const Request& r : state->replayed[s - 1].block.requests) {
        cache.store(r.client, r.timestamp, s, 0, service->execute(as_span(r.op)));
      }
    }
    wal->record_checkpoint(
        state->replayed[half - 1].cert,
        as_span(runtime::encode_checkpoint_snapshot(as_span(service->snapshot()),
                                                    cache)));
  }

  recovery::RecoveryManager manager(ledger, wal);
  auto begin = std::chrono::steady_clock::now();
  auto recovered = manager.recover(factory);
  auto end = std::chrono::steady_clock::now();
  ReplayResult out;
  out.wall_ms = std::chrono::duration<double, std::milli>(end - begin).count();
  out.replayed = recovered ? recovered->replayed.size() : 0;
  out.replayed_bytes = recovered ? recovered->replayed_bytes : 0;
  return out;
}

/// Simulated rejoin: kill a backup under load, restart it, and measure the
/// virtual time from restart until it has caught back up with the cluster.
/// Runs on either protocol through the identical Cluster API.
double measure_rejoin_ms(ProtocolKind kind, sim::SimTime downtime_us) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.num_clients = 4;
  opts.requests_per_client = 0;  // free-running load
  opts.topology = sim::lan_topology();
  opts.seed = 17;
  opts.tweak_config = [](ProtocolConfig& config) { config.win = 32; };
  Cluster cluster(std::move(opts));
  cluster.run_for(1'000'000);
  cluster.crash_replica(3);
  cluster.run_for(downtime_us);
  cluster.restart_replica(3);
  sim::SimTime restarted_at = cluster.simulator().now();
  for (int i = 0; i < 600; ++i) {
    cluster.run_for(50'000);
    SeqNum cluster_le = 0;
    for (ReplicaId r = 1; r <= cluster.n(); ++r) {
      if (r != 3) cluster_le = std::max(cluster_le, cluster.replica(r).last_executed());
    }
    if (cluster.replica(3).last_executed() + 2 >= cluster_le) {
      return static_cast<double>(cluster.simulator().now() - restarted_at) / 1000.0;
    }
  }
  return -1.0;  // did not catch up
}

/// Snapshot-size sweep (docs/state_transfer.md): a wiped replica rejoins via
/// chunked state transfer with either a small KV state or a large EVM state.
/// Measures the virtual rejoin time plus the bytes state transfer put on the
/// wire, and surfaces the chunk counters the harness metrics carry.
struct WipeRejoinResult {
  double rejoin_ms = -1.0;
  uint64_t snapshot_bytes = 0;     // envelope adopted by the wiped replica
  uint64_t wire_bytes = 0;         // state-transfer messages on the wire
  uint64_t chunks_fetched = 0;
  uint64_t chunks_served = 0;      // summed over donors
  uint64_t bytes_transferred = 0;  // fetcher-side chunk payload
  uint64_t resumes = 0;
};

uint64_t state_transfer_wire_bytes(Cluster& cluster) {
  const auto& stats = cluster.network().stats_by_type();
  auto bytes_of = [&](auto tag) { return stats[Message(decltype(tag){}).index()].bytes; };
  return bytes_of(StateTransferRequestMsg{}) + bytes_of(StateManifestMsg{}) +
         bytes_of(StateChunkRequestMsg{}) + bytes_of(StateChunkMsg{});
}

WipeRejoinResult measure_wipe_rejoin(ProtocolKind kind, bool evm_state) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running load
  // LAN latency, constrained uplinks (~40 Mbit/s): payload serialization
  // dominates the transfer (chunking fans the payload across donor uplinks).
  opts.topology = sim::lan_topology();
  opts.topology.bandwidth_bytes_per_us = 5.0;
  opts.seed = 31;
  if (evm_state) {
    opts.service_factory = [] { return std::make_unique<evm::EvmLedgerService>(); };
    opts.per_client_op_factory = [](ClientId id) {
      EthWorkloadOptions eth;
      eth.txs_per_request = 10;  // keep the interpreter cost bench-friendly
      return eth_op_factory(id, eth);
    };
  } else {
    opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
    KvWorkloadOptions kv;
    kv.key_space = 64;
    kv.value_size = 64;
    opts.op_factory = kv_op_factory(kv);
  }
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    config.state_transfer_chunk_size = 4096;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(1'500'000);  // build service state + stable checkpoints
  cluster.crash_replica(3);
  cluster.run_for(300'000);
  uint64_t wire_before = state_transfer_wire_bytes(cluster);
  cluster.restart_replica(3, /*wipe_storage=*/true);
  sim::SimTime restarted_at = cluster.simulator().now();

  WipeRejoinResult out;
  for (int i = 0; i < 5000; ++i) {
    if (cluster.replica(3).last_executed() > 0) {
      out.rejoin_ms =
          static_cast<double>(cluster.simulator().now() - restarted_at) / 1000.0;
      break;
    }
    cluster.run_for(2'000);
  }
  const runtime::RuntimeStats& st = cluster.replica(3).runtime_stats();
  out.snapshot_bytes = cluster.replica(3).runtime().checkpoints().snapshot().size();
  out.wire_bytes = state_transfer_wire_bytes(cluster) - wire_before;
  out.chunks_fetched = st.state_transfer_chunks_fetched;
  out.bytes_transferred = st.state_transfer_bytes_transferred;
  out.resumes = st.state_transfer_resumes;
  for (ReplicaId r = 1; r <= cluster.n(); ++r) {
    if (r != 3) {
      out.chunks_served +=
          cluster.replica(r).runtime_stats().state_transfer_chunks_served;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Delta sweep (docs/state_transfer.md "delta manifests"): a replica crashes
// for a bounded number of checkpoints and rejoins — with its disk intact
// (delta) vs. wiped, so it has no base and fetches every chunk (full) —
// under workloads whose steady state mutates a controlled fraction of the
// keyspace.

/// EVM workload with a bounded mutation set: each client deploys a token and
/// mints; the first `growth_requests` requests transfer to fresh accounts
/// (state grows), later requests transfer only among `hot_accounts` fixed
/// recipients — so between consecutive checkpoints in steady state only a
/// handful of balance slots (plus the sender's) mutate in a large ledger.
std::function<std::function<Bytes(uint64_t, Rng&)>(ClientId)> hot_eth_factory(
    uint32_t growth_requests, uint32_t hot_accounts) {
  return [=](ClientId id) {
    return [=](uint64_t request_index, Rng& rng) -> Bytes {
      evm::Address deployer = eth_account_of(90'000 + id);  // any unique address
      evm::Address token = evm::EvmLedgerService::derive_address(deployer, 0);
      evm::Address self = eth_account_of(id);
      auto word = [](const evm::Address& a) {
        return evm::U256::from_bytes_be(ByteSpan{a.data(), a.size()});
      };
      if (request_index == 0) {
        std::vector<Bytes> txs;
        txs.push_back(evm::encode_create({deployer, evm::token_contract()}));
        evm::CallTx mint;
        mint.sender = self;
        mint.contract = token;
        mint.calldata = evm::token_call_mint(word(self), evm::U256(1'000'000'000));
        txs.push_back(evm::encode_call(mint));
        return evm::encode_tx_batch(txs);
      }
      std::vector<Bytes> txs;
      for (uint32_t i = 0; i < 10; ++i) {
        uint64_t pool = request_index < growth_requests ? 1u << 20 : hot_accounts;
        evm::CallTx call;
        call.sender = self;
        call.contract = token;
        call.calldata = evm::token_call_transfer(
            word(eth_account_of(static_cast<ClientId>(rng.below(pool)))),
            evm::U256(1));
        txs.push_back(evm::encode_call(call));
      }
      return evm::encode_tx_batch(txs);
    };
  };
}

struct DeltaRejoinResult {
  double rejoin_ms = -1.0;
  uint64_t snapshot_bytes = 0;      // envelope held by the rejoined replica
  uint64_t bytes_transferred = 0;   // chunk payload fetched over the wire
  uint64_t delta_chunks_skipped = 0;
  uint64_t delta_bytes_saved = 0;
  uint64_t chunks_fetched = 0;
};

DeltaRejoinResult measure_delta_rejoin(ProtocolKind kind, bool evm_state,
                                       uint32_t hot, bool wipe_storage) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.topology.bandwidth_bytes_per_us = 5.0;
  opts.seed = 37;
  if (evm_state) {
    opts.service_factory = [] { return std::make_unique<evm::EvmLedgerService>(); };
    opts.per_client_op_factory = hot_eth_factory(/*growth_requests=*/60, hot);
  } else {
    // `hot / key_space` approximates the fraction of keys mutated between
    // consecutive checkpoints.
    opts.service_factory = [] { return std::make_unique<kv::KvService>(); };
    opts.op_factory = hot_range_kv_op_factory(/*key_space=*/4096, hot,
                                              /*value_size=*/256,
                                              /*ops_per_request=*/16);
  }
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 32;
    // Finer chunks than the wipe sweep: delta resolution is one chunk, so the
    // grid must be small next to the mutated working set.
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(2'500'000);  // build state + steady-state checkpoints
  cluster.crash_replica(3);
  // Let the cluster seal exactly two more checkpoints, then restart — with
  // the disk intact, the briefly-behind case the delta path is built for.
  SeqNum stable_at_crash = cluster.replica(1).last_stable();
  uint64_t interval = cluster.config().checkpoint_interval();
  for (int i = 0; i < 600; ++i) {
    if (cluster.replica(1).last_stable() >= stable_at_crash + 2 * interval) break;
    cluster.run_for(25'000);
  }
  cluster.restart_replica(3, wipe_storage);
  sim::SimTime restarted_at = cluster.simulator().now();

  DeltaRejoinResult out;
  for (int i = 0; i < 2000; ++i) {
    if (cluster.replica(3).last_stable() > stable_at_crash) {
      out.rejoin_ms =
          static_cast<double>(cluster.simulator().now() - restarted_at) / 1000.0;
      break;
    }
    cluster.run_for(5'000);
  }
  const runtime::RuntimeStats& st = cluster.replica(3).runtime_stats();
  out.snapshot_bytes = cluster.replica(3).runtime().checkpoints().snapshot().size();
  out.bytes_transferred = st.state_transfer_bytes_transferred;
  out.delta_chunks_skipped = st.delta_chunks_skipped;
  out.delta_bytes_saved = st.delta_bytes_saved;
  out.chunks_fetched = st.state_transfer_chunks_fetched;
  return out;
}

// ---------------------------------------------------------------------------
// Group reconfiguration (docs/reconfiguration.md): grow 4 -> 7 (f 1 -> 2)
// with wiped joiners, then shrink back to 4 — the operable-service loop.

struct ReconfigResult {
  double join_ms = -1.0;          // reconfig submission -> every joiner joined
  uint64_t epochs_activated = 0;  // summed over all replicas, both epochs
  uint64_t joins_completed = 0;
  uint64_t joiner_wire_bytes = 0;  // snapshot payload fetched by the joiners
  bool removal_drained = false;    // removed replicas froze; cluster advanced
};

ReconfigResult measure_reconfig(ProtocolKind kind) {
  ClusterOptions opts;
  opts.kind = kind;
  opts.f = 1;
  opts.num_clients = 2;
  opts.requests_per_client = 0;  // free-running
  opts.topology = sim::lan_topology();
  opts.seed = 71;
  opts.tweak_config = [](ProtocolConfig& config) {
    config.win = 16;
    config.state_transfer_chunk_size = 1024;
    config.state_transfer_retry_us = 200'000;
  };
  Cluster cluster(std::move(opts));
  cluster.run_for(1'500'000);

  ReconfigResult out;
  ReplicaId a = cluster.add_replica();
  ReplicaId b = cluster.add_replica();
  ReplicaId c = cluster.add_replica();
  cluster.submit_reconfig({a, b, c}, {}, /*new_f=*/2);
  sim::SimTime submitted_at = cluster.simulator().now();
  for (int i = 0; i < 1200; ++i) {
    bool joined = true;
    for (ReplicaId r : {a, b, c}) {
      joined = joined && cluster.replica(r).runtime_stats().joins_completed == 1;
    }
    if (joined) {
      out.join_ms =
          static_cast<double>(cluster.simulator().now() - submitted_at) / 1000.0;
      break;
    }
    cluster.run_for(25'000);
  }
  if (out.join_ms < 0) return out;
  cluster.run_for(500'000);

  // Shrink back: the joiners leave, f returns to 1.
  cluster.submit_reconfig({}, {a, b, c}, /*new_f=*/1);
  for (int i = 0; i < 1200; ++i) {
    if (cluster.replica(1).runtime_stats().epochs_activated >= 2) break;
    cluster.run_for(25'000);
  }
  cluster.run_for(500'000);  // drain in-flight pre-epoch work
  SeqNum frozen = cluster.replica(a).last_executed();
  SeqNum before = cluster.replica(1).last_executed();
  cluster.run_for(1'500'000);
  out.removal_drained = cluster.replica(a).last_executed() == frozen &&
                        cluster.replica(1).last_executed() > before;

  for (ReplicaId r = 1; r <= cluster.num_replicas(); ++r) {
    const runtime::RuntimeStats& st = cluster.replica(r).runtime_stats();
    out.epochs_activated += st.epochs_activated;
    out.joins_completed += st.joins_completed;
  }
  for (ReplicaId r : {a, b, c}) {
    out.joiner_wire_bytes +=
        cluster.replica(r).runtime_stats().state_transfer_bytes_transferred;
  }
  return out;
}

/// WAL bytes written across a run of checkpoints under each compaction
/// policy, with a realistic in-flight window of votes ahead of the stable
/// sequence. Returns {incremental, full_rewrite}.
std::pair<uint64_t, uint64_t> measure_wal_compaction(SeqNum seqs, SeqNum window,
                                                     SeqNum interval,
                                                     size_t snapshot_bytes) {
  auto run = [&](recovery::WalCompaction policy) {
    std::string path =
        std::string("/tmp/sbft-recovery-bench-wal-") +
        (policy == recovery::WalCompaction::kIncremental ? "inc" : "full");
    std::remove(path.c_str());
    recovery::FileWal wal(path, policy);
    Digest d{};
    d.fill(0x42);
    const Bytes snap(snapshot_bytes, 0xab);
    for (SeqNum s = 1; s <= seqs; ++s) {
      wal.record_vote(s, 1, d);
      if (s % interval == 0 && s > window) {
        ExecCertificate cert;
        cert.seq = s - window;
        cert.state_root = d;
        cert.ops_root = d;
        cert.prev_exec_digest = d;
        wal.record_checkpoint(cert, as_span(snap));
      }
    }
    uint64_t written = wal.bytes_written();
    std::remove(path.c_str());
    return written;
  };
  return {run(recovery::WalCompaction::kIncremental),
          run(recovery::WalCompaction::kFullRewrite)};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::printf("=== Recovery latency vs ledger length (§VIII durability) ===\n\n");
  std::printf("%10s %14s %12s %14s %14s\n", "blocks", "mode", "replayed",
              "bytes", "recover ms");
  std::vector<uint64_t> sizes =
      quick ? std::vector<uint64_t>{256, 1024} : std::vector<uint64_t>{256, 1024, 4096, 16384};
  if (!quick && bench_full_mode()) sizes.push_back(65536);
  for (uint64_t blocks : sizes) {
    for (bool snapshot : {false, true}) {
      ReplayResult r = measure_replay(blocks, snapshot);
      const char* mode = snapshot ? "snapshot+tail" : "full-replay";
      std::printf("%10llu %14s %12llu %14llu %14.2f\n",
                  static_cast<unsigned long long>(blocks), mode,
                  static_cast<unsigned long long>(r.replayed),
                  static_cast<unsigned long long>(r.replayed_bytes), r.wall_ms);
      std::printf("%s\n", JsonWriter()
                              .field("bench", "recovery_replay")
                              .field("ledger_blocks", blocks)
                              .field("mode", mode)
                              .field("replayed", r.replayed)
                              .field("replayed_bytes", r.replayed_bytes)
                              .field("recover_wall_ms", r.wall_ms)
                              .str()
                              .c_str());
      std::fflush(stdout);
    }
  }

  std::printf("\n=== Simulated rejoin time vs downtime, per protocol (kill + "
              "restart under load) ===\n\n");
  std::printf("%10s %14s %16s\n", "protocol", "downtime ms", "rejoin ms");
  std::vector<sim::SimTime> downtimes =
      quick ? std::vector<sim::SimTime>{500'000, 2'000'000}
            : std::vector<sim::SimTime>{500'000, 2'000'000, 8'000'000};
  for (ProtocolKind kind : {ProtocolKind::kSbft, ProtocolKind::kPbft}) {
    for (sim::SimTime down : downtimes) {
      double rejoin = measure_rejoin_ms(kind, down);
      std::printf("%10s %14lld %16.1f\n", protocol_name(kind),
                  static_cast<long long>(down / 1000), rejoin);
      std::printf("%s\n", JsonWriter()
                              .field("bench", "recovery_rejoin")
                              .field("protocol", protocol_name(kind))
                              .field("downtime_ms", static_cast<int64_t>(down / 1000))
                              .field("rejoin_ms", rejoin)
                              .str()
                              .c_str());
      std::fflush(stdout);
    }
  }

  std::printf("\n=== Snapshot-size sweep: chunked state transfer (wiped-disk "
              "rejoin) ===\n\n");
  std::printf("%10s %10s %14s %12s %12s %10s %10s\n", "protocol", "state",
              "snapshot B", "rejoin ms", "wire B", "fetched", "served");
  std::vector<ProtocolKind> sweep_kinds =
      quick ? std::vector<ProtocolKind>{ProtocolKind::kSbft}
            : std::vector<ProtocolKind>{ProtocolKind::kSbft, ProtocolKind::kPbft};
  for (ProtocolKind kind : sweep_kinds) {
    for (bool evm : {false, true}) {
      WipeRejoinResult r = measure_wipe_rejoin(kind, evm);
      const char* state = evm ? "evm-large" : "kv-small";
      std::printf("%10s %10s %14llu %12.1f %12llu %10llu %10llu\n",
                  protocol_name(kind), state,
                  static_cast<unsigned long long>(r.snapshot_bytes), r.rejoin_ms,
                  static_cast<unsigned long long>(r.wire_bytes),
                  static_cast<unsigned long long>(r.chunks_fetched),
                  static_cast<unsigned long long>(r.chunks_served));
      std::printf("%s\n", JsonWriter()
                              .field("bench", "state_transfer_sweep")
                              .field("protocol", protocol_name(kind))
                              .field("state", state)
                              .field("snapshot_bytes", r.snapshot_bytes)
                              .field("rejoin_ms", r.rejoin_ms)
                              .field("wire_bytes", r.wire_bytes)
                              .field("state_transfer_chunks_fetched", r.chunks_fetched)
                              .field("state_transfer_chunks_served", r.chunks_served)
                              .field("state_transfer_bytes_transferred",
                                     r.bytes_transferred)
                              .field("state_transfer_resumes", r.resumes)
                              .str()
                              .c_str());
      std::fflush(stdout);
      if (r.rejoin_ms < 0) {
        std::printf("FAIL: wiped replica never rejoined (%s, %s)\n",
                    protocol_name(kind), state);
        return 1;
      }
    }
  }

  std::printf("\n=== Delta state transfer: briefly-behind rejoin, delta vs "
              "wiped full-chunked (mutation fraction x state) ===\n\n");
  std::printf("%10s %10s %10s %8s %14s %12s %12s %10s\n", "protocol", "state",
              "mutation", "mode", "snapshot B", "wire B", "saved B", "skipped");
  struct DeltaCase {
    bool evm;
    uint32_t hot;
    const char* state;
    const char* mutation;
  };
  std::vector<DeltaCase> delta_cases =
      quick ? std::vector<DeltaCase>{{false, 32, "kv-large", "low"},
                                     {true, 8, "evm-large", "low"}}
            : std::vector<DeltaCase>{{false, 32, "kv-large", "low"},
                                     {false, 2048, "kv-large", "high"},
                                     {true, 8, "evm-large", "low"}};
  bool delta_criterion_ok = true;
  for (ProtocolKind kind : sweep_kinds) {
    for (const DeltaCase& c : delta_cases) {
      DeltaRejoinResult full = measure_delta_rejoin(kind, c.evm, c.hot,
                                                    /*wipe_storage=*/true);
      DeltaRejoinResult delta = measure_delta_rejoin(kind, c.evm, c.hot,
                                                     /*wipe_storage=*/false);
      for (const auto& [mode, r] :
           {std::pair<const char*, const DeltaRejoinResult&>{"full", full},
            {"delta", delta}}) {
        std::printf("%10s %10s %10s %8s %14llu %12llu %12llu %10llu\n",
                    protocol_name(kind), c.state, c.mutation, mode,
                    static_cast<unsigned long long>(r.snapshot_bytes),
                    static_cast<unsigned long long>(r.bytes_transferred),
                    static_cast<unsigned long long>(r.delta_bytes_saved),
                    static_cast<unsigned long long>(r.delta_chunks_skipped));
        std::printf("%s\n", JsonWriter()
                                .field("bench", "delta_state_transfer")
                                .field("protocol", protocol_name(kind))
                                .field("state", c.state)
                                .field("mutation", c.mutation)
                                .field("mode", mode)
                                .field("snapshot_bytes", r.snapshot_bytes)
                                .field("rejoin_ms", r.rejoin_ms)
                                .field("state_transfer_bytes_transferred",
                                       r.bytes_transferred)
                                .field("state_transfer_chunks_fetched", r.chunks_fetched)
                                .field("delta_chunks_skipped", r.delta_chunks_skipped)
                                .field("delta_bytes_saved", r.delta_bytes_saved)
                                .str()
                                .c_str());
        std::fflush(stdout);
        if (r.rejoin_ms < 0) {
          std::printf("FAIL: briefly-behind replica never rejoined (%s, %s, "
                      "%s, %s)\n",
                      protocol_name(kind), c.state, c.mutation, mode);
          return 1;
        }
      }
      // The headline criterion: with a low mutation fraction, a delta rejoin
      // must move at most 25%% of the bytes of a full chunked rejoin.
      if (std::string(c.mutation) == "low" &&
          delta.bytes_transferred * 4 > full.bytes_transferred) {
        delta_criterion_ok = false;
        std::printf("FAIL: delta rejoin moved %llu bytes, full moved %llu "
                    "(%s, %s) — expected <= 25%%\n",
                    static_cast<unsigned long long>(delta.bytes_transferred),
                    static_cast<unsigned long long>(full.bytes_transferred),
                    protocol_name(kind), c.state);
      }
    }
  }
  if (!delta_criterion_ok) return 1;

  std::printf("\n=== Group reconfiguration: grow 4 -> 7 (f 1 -> 2) with wiped "
              "joiners, then shrink back ===\n\n");
  std::printf("%10s %12s %10s %10s %14s %10s\n", "protocol", "join ms",
              "epochs", "joins", "joiner wire B", "drained");
  for (ProtocolKind kind : sweep_kinds) {
    ReconfigResult r = measure_reconfig(kind);
    std::printf("%10s %12.1f %10llu %10llu %14llu %10s\n", protocol_name(kind),
                r.join_ms, static_cast<unsigned long long>(r.epochs_activated),
                static_cast<unsigned long long>(r.joins_completed),
                static_cast<unsigned long long>(r.joiner_wire_bytes),
                r.removal_drained ? "yes" : "NO");
    std::printf("%s\n", JsonWriter()
                            .field("bench", "reconfiguration")
                            .field("protocol", protocol_name(kind))
                            .field("join_ms", r.join_ms)
                            .field("epochs_activated", r.epochs_activated)
                            .field("joins_completed", r.joins_completed)
                            .field("joiner_wire_bytes", r.joiner_wire_bytes)
                            .field_raw("removal_drained",
                                       r.removal_drained ? "true" : "false")
                            .str()
                            .c_str());
    std::fflush(stdout);
    if (r.join_ms < 0 || r.joins_completed < 3 || !r.removal_drained) {
      std::printf("FAIL: reconfiguration cycle broke on %s (join_ms=%.1f, "
                  "joins=%llu, drained=%d)\n",
                  protocol_name(kind), r.join_ms,
                  static_cast<unsigned long long>(r.joins_completed),
                  r.removal_drained ? 1 : 0);
      return 1;
    }
  }

  std::printf("\n=== WAL compaction policy (bytes written across %s run) ===\n\n",
              quick ? "a quick" : "a full");
  auto [inc_bytes, full_bytes] =
      measure_wal_compaction(quick ? 512 : 4096, /*window=*/256, /*interval=*/16,
                             /*snapshot_bytes=*/256);
  std::printf("%16s %16s %10s\n", "incremental", "full-rewrite", "ratio");
  std::printf("%16llu %16llu %9.2fx\n",
              static_cast<unsigned long long>(inc_bytes),
              static_cast<unsigned long long>(full_bytes),
              inc_bytes > 0 ? static_cast<double>(full_bytes) /
                                  static_cast<double>(inc_bytes)
                            : 0.0);
  std::printf("%s\n", JsonWriter()
                          .field("bench", "wal_compaction")
                          .field("incremental_bytes", inc_bytes)
                          .field("full_rewrite_bytes", full_bytes)
                          .str()
                          .c_str());
  if (inc_bytes >= full_bytes) {
    std::printf("FAIL: incremental compaction wrote >= bytes than full "
                "rewrite\n");
    return 1;
  }

  std::printf("\nExpected: full replay grows linearly with ledger length; the "
              "snapshot halves the replayed suffix. Rejoin time is dominated "
              "by replay plus one state-transfer round when the cluster's "
              "checkpoint moved past the local log; PBFT and SBFT recover "
              "through the same runtime so their curves are comparable. "
              "Incremental WAL compaction writes strictly fewer bytes than "
              "rewriting the log at every checkpoint. In the snapshot sweep, "
              "chunking adds a small per-chunk proof overhead on the wire but "
              "fans the payload out across every donor's uplink and resumes "
              "after donor loss. In the "
              "delta sweep, a briefly-behind replica under a low mutation "
              "fraction seeds almost every chunk from the checkpoint it "
              "already holds: the wire bytes collapse to the mutated "
              "working set (<= 25%% of a full chunked rejoin, asserted "
              "above) and the rejoin time follows. The reconfiguration cycle "
              "shows an operable service: joiners bootstrap as wiped "
              "fetchers, the epoch flips at a checkpoint boundary, and "
              "removed replicas drain without disturbing the survivors.\n");
  return 0;
}
