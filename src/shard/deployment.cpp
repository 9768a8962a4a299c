#include "shard/deployment.h"

#include <algorithm>

namespace sbft::shard {

Deployment::Deployment(DeploymentOptions options) : opts_(std::move(options)) {
  SBFT_CHECK(opts_.num_groups >= 1);
  harness::ClusterOptions base = opts_.group;
  base.num_clients = 0;  // clients live at the deployment level
  if (base.topology.region_latency_us.empty()) base.topology = sim::lan_topology();
  net_ = std::make_unique<sim::Network>(sim_, base.topology, base.costs, opts_.seed);

  Rng secret_rng(opts_.seed ^ 0x2fc7u);
  auth_ = std::make_shared<TxAuth>(secret_rng.bytes(32));
  router_ = std::make_shared<Router>(opts_.num_groups);

  // Uniform groups make the node plan known before any group is built:
  // group g's replicas occupy nodes [g*n, g*n+n) — asserted below.
  const ProtocolConfig gcfg = base.make_config();
  const uint32_t n = gcfg.n();
  auto directory = std::make_shared<Directory>();
  for (uint32_t g = 0; g < opts_.num_groups; ++g) {
    std::vector<NodeId> nodes;
    for (uint32_t r = 0; r < n; ++r) nodes.push_back(g * n + r);
    directory->add_group(std::move(nodes));
  }
  directory_ = std::move(directory);

  for (uint32_t g = 0; g < opts_.num_groups; ++g) {
    harness::ClusterOptions co = base;
    co.seed = opts_.seed + 1000ull * (g + 1);  // independent per-group streams
    co.marker_executor_factory = [this, g, f = gcfg.f](ReplicaId r, NodeId) {
      ShardExecutorOptions so;
      so.group = g;
      so.replica = r;
      so.f = f;
      so.directory = directory_;
      so.auth = auth_;
      return std::make_shared<ShardExecutor>(std::move(so));
    };
    groups_.push_back(std::make_unique<harness::Cluster>(std::move(co), sim_, *net_));
    SBFT_CHECK(groups_.back()->node_base() == g * n);
  }

  std::vector<core::GroupView> views;
  for (const auto& group : groups_) views.push_back(group->group_view());
  for (uint32_t i = 0; i < opts_.num_clients; ++i) {
    ShardClientOptions so;
    so.id = net_->num_nodes();  // next node id — asserted below
    so.num_requests = opts_.requests_per_client;
    so.router = router_;
    so.groups = views;
    so.cross_shard_every = opts_.cross_shard_every;
    so.keyspace = opts_.keyspace;
    auto client = std::make_unique<ShardClient>(std::move(so));
    NodeId node = net_->add_node(client.get());
    SBFT_CHECK(node == opts_.num_groups * n + i);
    clients_.push_back(std::move(client));
  }
}

Deployment::~Deployment() = default;

void Deployment::start() {
  if (started_) return;
  started_ = true;
  net_->start();
}

void Deployment::run_for(sim::SimTime sim_time_us) {
  start();
  sim_.run_until(sim_.now() + sim_time_us);
}

bool Deployment::run_until_done(sim::SimTime deadline_us) {
  start();
  auto all_done = [&] {
    return std::all_of(clients_.begin(), clients_.end(),
                       [](const auto& c) { return c->done(); });
  };
  while (sim_.now() < deadline_us) {
    if (all_done()) return true;
    if (sim_.idle()) return false;  // deadlock would be a bug; surface it
    sim_.run_until(std::min(deadline_us, sim_.now() + 50'000));
  }
  return all_done();
}

ShardExecutor& Deployment::executor(uint32_t g, ReplicaId r) {
  return static_cast<ShardExecutor&>(*group(g).replica(r).marker_executor());
}

const ShardExecutor& Deployment::executor(uint32_t g, ReplicaId r) const {
  return static_cast<const ShardExecutor&>(*group(g).replica(r).marker_executor());
}

uint64_t Deployment::total_completed() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->completed();
  return total;
}

uint64_t Deployment::cross_shard_commits() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->cross_shard_commits();
  return total;
}

uint64_t Deployment::cross_shard_aborts() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->cross_shard_aborts();
  return total;
}

std::vector<std::string> Deployment::audit_cross_shard_atomicity() const {
  std::vector<std::string> problems;
  // txid -> first decision seen (per group, and deployment-wide).
  std::map<std::pair<uint64_t, uint32_t>, bool> group_decision;
  std::map<uint64_t, bool> global_decision;
  for (uint32_t g = 0; g < num_groups(); ++g) {
    for (ReplicaId r = 1; r <= group(g).num_replicas(); ++r) {
      for (const auto& [txid, committed] :
           executor(g, r).tx_manager().decided_txs()) {
        auto [git, ginserted] = group_decision.emplace(std::pair{txid, g}, committed);
        if (!ginserted && git->second != committed) {
          problems.push_back("group " + std::to_string(g) +
                             " split on tx " + std::to_string(txid));
        }
        auto [it, inserted] = global_decision.emplace(txid, committed);
        if (!inserted && it->second != committed) {
          problems.push_back("tx " + std::to_string(txid) +
                             " committed in one group, aborted in another (seen in group " +
                             std::to_string(g) + ")");
        }
      }
    }
  }
  return problems;
}

obs::MetricsRegistry Deployment::merged_metrics() const {
  obs::MetricsRegistry out;
  for (uint32_t g = 0; g < num_groups(); ++g) {
    obs::MetricsRegistry folded;
    uint64_t decisions_commit = 0;
    uint64_t decisions_abort = 0;
    for (ReplicaId r = 1; r <= group(g).num_replicas(); ++r) {
      folded.merge(*group(g).replica(r).metrics());
      decisions_commit = std::max(decisions_commit, executor(g, r).commits());
      decisions_abort = std::max(decisions_abort, executor(g, r).aborts());
    }
    const std::string prefix = "shard" + std::to_string(g) + ".";
    folded.for_each_counter(
        [&](const std::string& name, uint64_t v) { out.add(prefix + name, v); });
    folded.for_each_gauge(
        [&](const std::string& name, double v) { out.gauge(prefix + name) = v; });
    folded.for_each_histogram([&](const std::string& name, const obs::Histogram& h) {
      out.histogram(prefix + name).merge(h);
    });
    // Group-level 2PC outcome counters: the max over replicas (each counts
    // its own executions; the most advanced replica has the group's total).
    out.add(prefix + "tx.commits", decisions_commit);
    out.add(prefix + "tx.aborts", decisions_abort);
  }
  return out;
}

}  // namespace sbft::shard
