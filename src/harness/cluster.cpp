#include "harness/cluster.h"

#include <algorithm>

#include "obs/trace_export.h"

namespace sbft::harness {

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kPbft: return "PBFT";
    case ProtocolKind::kLinearPbft: return "Linear-PBFT";
    case ProtocolKind::kLinearPbftFast: return "Linear-PBFT+FastPath";
    case ProtocolKind::kSbft: return "SBFT";
  }
  return "?";
}

ProtocolConfig ClusterOptions::make_config() const {
  ProtocolConfig config;
  config.f = f;
  config.c = kind == ProtocolKind::kSbft ? c : 0;
  switch (kind) {
    case ProtocolKind::kPbft:
    case ProtocolKind::kLinearPbft:
      config.fast_path_enabled = false;
      config.execution_collector = false;
      break;
    case ProtocolKind::kLinearPbftFast:
      config.fast_path_enabled = true;
      config.execution_collector = false;
      break;
    case ProtocolKind::kSbft:
      config.fast_path_enabled = true;
      config.execution_collector = true;
      break;
  }
  if (tweak_config) {
    ProtocolConfig copy = config;
    tweak_config(copy);
    return copy;
  }
  return config;
}

Cluster::Cluster(ClusterOptions options)
    : opts_(std::move(options)), config_(opts_.make_config()) {
  if (opts_.topology.region_latency_us.empty()) opts_.topology = sim::lan_topology();
  if (!opts_.service_factory) {
    opts_.service_factory = [] { return std::make_unique<FastKvService>(); };
  }
  if (!opts_.op_factory) opts_.op_factory = kv_op_factory({});
  owned_sim_ = std::make_unique<sim::Simulator>();
  sim_ = owned_sim_.get();
  owned_net_ =
      std::make_unique<sim::Network>(*sim_, opts_.topology, opts_.costs, opts_.seed);
  net_ = owned_net_.get();
  build();
}

Cluster::Cluster(ClusterOptions options, sim::Simulator& sim, sim::Network& net)
    : opts_(std::move(options)), config_(opts_.make_config()) {
  if (!opts_.service_factory) {
    opts_.service_factory = [] { return std::make_unique<FastKvService>(); };
  }
  if (!opts_.op_factory) opts_.op_factory = kv_op_factory({});
  sim_ = &sim;
  net_ = &net;
  build();
}

Cluster::~Cluster() = default;

void Cluster::build_replica(ReplicaHandle& handle, core::ReplicaBehavior behavior,
                            bool recovering) {
  auto listed = [&handle](const std::vector<ReplicaId>& ids) {
    return std::find(ids.begin(), ids.end(), handle.id_) != ids.end();
  };
  // Every replica bootstraps with the harness' current roster view: for the
  // genesis build this is exactly the genesis mapping, for joiners the roster
  // that does not yet contain them, and for restarts the newest one (their
  // WAL may know better — membership recovery wins then).
  auto fill = [&](runtime::EngineOptions& eo) {
    eo.config = config_;
    eo.id = handle.id_;
    eo.ledger = handle.ledger_;
    eo.wal = handle.wal_;
    eo.recovering = recovering;
    eo.corrupt_state_chunks = listed(opts_.corrupt_chunk_replicas);
    eo.roster = current_members_;
    eo.roster_f = current_f_;
    eo.roster_c = current_c_;
    eo.tracer = handle.tracer_;
    eo.metrics = handle.metrics_;
    eo.marker_executor = handle.marker_executor_.get();
  };
  handle.sbft_ = nullptr;
  handle.pbft_ = nullptr;
  handle.silent_ = behavior == core::ReplicaBehavior::kSilent;
  if (opts_.kind == ProtocolKind::kPbft) {
    pbft::PbftOptions po;
    fill(po);
    po.fabricate_checkpoint = listed(opts_.fabricate_checkpoint_replicas);
    po.checkpoint_auth = checkpoint_auth_;
    auto engine =
        std::make_unique<pbft::PbftReplica>(std::move(po), opts_.service_factory());
    handle.pbft_ = engine.get();
    handle.engine_ = std::move(engine);
  } else {
    core::ReplicaOptions ro;
    fill(ro);
    // A joiner holds no genesis signer slot: verifier-only epoch-0 view (its
    // signers come from the epoch that admits it, via epoch_keys).
    ro.crypto = handle.id_ <= config_.n()
                    ? core::ReplicaCrypto::for_replica(keys_, handle.id_)
                    : core::ReplicaCrypto::verifier_only(keys_);
    ro.behavior = behavior;
    ro.epoch_keys = epoch_keys_;
    auto engine =
        std::make_unique<core::SbftReplica>(std::move(ro), opts_.service_factory());
    handle.sbft_ = engine.get();
    handle.engine_ = std::move(engine);
  }
}

void Cluster::build() {
  // Byzantine behaviours are implemented by the SBFT engine only; fail loudly
  // rather than running a "byzantine" PBFT cluster all-honest. (Crash /
  // straggler / restart faults are network-level and work on every protocol.)
  SBFT_CHECK(opts_.kind != ProtocolKind::kPbft || opts_.byzantine_replicas == 0);
  // Embedded as a shard, the cluster's node block starts where the shared
  // network currently ends; standalone it starts at 0.
  node_base_ = net_->num_nodes();
  Rng key_rng(opts_.seed ^ 0x5bf7u);
  keys_ = opts_.use_real_threshold_crypto
              ? core::ClusterKeys::generate_rsa(key_rng, config_,
                                                /*modulus_bits=*/384)
              : core::ClusterKeys::generate(key_rng, config_);
  epoch_keys_ = std::make_shared<core::EpochKeyTable>();
  checkpoint_auth_ = std::make_shared<pbft::CheckpointAuth>(
      key_rng.bytes(32));  // cluster checkpoint-signing secret

  const uint32_t n = config_.n();
  current_f_ = config_.f;
  current_c_ = config_.c;
  for (ReplicaId r = 1; r <= n; ++r) {
    current_members_.push_back({r, node_base_ + r - 1});
  }
  const ReplicaId primary0 = config_.primary_of(0);

  // Fault roles are drawn first (replica behaviour is fixed at construction).
  // The view-0 primary is never selected: the paper's failure scenarios crash
  // backups, and primary failure is exercised by the view-change tests.
  Rng fault_rng(opts_.seed ^ 0xfau);
  std::vector<ReplicaId> backups;
  for (ReplicaId r = 1; r <= n; ++r) {
    if (r != primary0) backups.push_back(r);
  }
  for (size_t i = backups.size(); i > 1; --i) {
    std::swap(backups[i - 1], backups[fault_rng.below(i)]);
  }
  std::vector<core::ReplicaBehavior> behavior(n + 1, core::ReplicaBehavior::kHonest);
  std::vector<ReplicaId> to_crash;
  std::vector<ReplicaId> to_slow;
  size_t cursor = 0;
  for (uint32_t i = 0; i < opts_.crash_replicas && cursor < backups.size(); ++i) {
    to_crash.push_back(backups[cursor++]);
  }
  for (uint32_t i = 0; i < opts_.straggler_replicas && cursor < backups.size(); ++i) {
    to_slow.push_back(backups[cursor++]);
  }
  for (uint32_t i = 0; i < opts_.byzantine_replicas && cursor < backups.size(); ++i) {
    behavior[backups[cursor++]] = opts_.byzantine_behavior;
  }

  // Replicas occupy node ids node_base..node_base+n-1; the authoritative
  // replica->node mapping lives in each ReplicaHandle.
  replicas_.resize(n);
  for (ReplicaId r = 1; r <= n; ++r) {
    ReplicaHandle& handle = replicas_[r - 1];
    handle.id_ = r;
    // The memory ledger and WAL stand in for the disk that survives a crash.
    handle.ledger_ = std::make_shared<storage::MemoryLedgerStorage>();
    handle.wal_ = std::make_shared<recovery::MemoryWal>();
    handle.metrics_ = std::make_shared<obs::MetricsRegistry>();
    if (opts_.tracing) {
      handle.tracer_ = std::make_shared<obs::Tracer>(r, opts_.trace_capacity);
    }
    if (opts_.marker_executor_factory) {
      handle.marker_executor_ =
          opts_.marker_executor_factory(r, node_base_ + r - 1);
    }
    build_replica(handle, behavior[r], /*recovering=*/false);
    handle.node_ = net_->add_node(handle.actor());
    SBFT_CHECK(handle.node_ == node_base_ + r - 1);  // replicas are added first
    net_->set_cores(handle.node_, replica_lanes());
  }

  // Clients occupy the node ids after the replica block; ClientId == NodeId
  // (globally unique across a deployment's groups — reply caches and exec
  // leaves key on the client id).
  const core::GroupView view = group_view();
  for (uint32_t i = 0; i < opts_.num_clients; ++i) {
    core::ClientOptions co;
    const ClientId cid = node_base_ + n + i;
    co.id = cid;
    co.group = view;
    co.num_requests = opts_.requests_per_client;
    co.op_factory = opts_.per_client_op_factory ? opts_.per_client_op_factory(cid)
                                                : opts_.op_factory;
    auto client = std::make_unique<core::SbftClient>(std::move(co));
    NodeId node = net_->add_node(client.get());
    SBFT_CHECK(node == cid);
    clients_.push_back(std::move(client));
  }

  for (ReplicaId r : to_crash) net_->crash(replica(r).node());
  for (ReplicaId r : to_slow) {
    net_->set_cpu_factor(replica(r).node(), 4.0);
    net_->set_extra_latency(replica(r).node(), 20'000);
  }

  // Scheduled kill-and-restart scenarios (rolling restarts chain events);
  // available on every protocol.
  for (const ClusterOptions::RestartEvent& ev : opts_.restart_schedule) {
    ReplicaId target = ev.replica;
    if (target == 0 && cursor < backups.size()) target = backups[cursor++];
    if (target == 0) continue;  // no backup left to assign
    sim_->schedule(ev.crash_at_us, [this, target] { crash_replica(target); });
    if (ev.restart_at_us > ev.crash_at_us) {
      sim_->schedule(ev.restart_at_us, [this, target, wipe = ev.wipe_storage] {
        restart_replica(target, wipe);
      });
    }
  }
}

uint32_t Cluster::replica_lanes() const {
  return std::max<uint32_t>(1, opts_.cores_per_replica);
}

core::GroupView Cluster::group_view() const {
  core::GroupView view;
  view.config = config_;
  view.crypto = core::ReplicaCrypto::verifier_only(keys_);
  view.epoch_keys = epoch_keys_;
  for (ReplicaId r = 1; r <= config_.n(); ++r) {
    view.replica_nodes.push_back(replica(r).node());
  }
  return view;
}

ReplicaId Cluster::add_replica() {
  ReplicaHandle handle;
  handle.id_ = static_cast<ReplicaId>(replicas_.size() + 1);
  handle.ledger_ = std::make_shared<storage::MemoryLedgerStorage>();
  handle.wal_ = std::make_shared<recovery::MemoryWal>();
  handle.metrics_ = std::make_shared<obs::MetricsRegistry>();
  if (opts_.tracing) {
    handle.tracer_ =
        std::make_shared<obs::Tracer>(handle.id_, opts_.trace_capacity);
  }
  if (opts_.marker_executor_factory) {
    // The joiner takes the next node id the shared network will hand out.
    handle.marker_executor_ =
        opts_.marker_executor_factory(handle.id_, net_->num_nodes());
  }
  // The joiner bootstraps as a wiped recovering fetcher against the current
  // roster (which does not contain it); it participates only after an epoch
  // admitting it activates and arrives via state transfer.
  build_replica(handle, core::ReplicaBehavior::kHonest, /*recovering=*/true);
  handle.node_ = net_->add_node(handle.actor());
  net_->set_cores(handle.node_, replica_lanes());
  ReplicaId id = handle.id_;
  replicas_.push_back(std::move(handle));
  if (started_) net_->start_node(replicas_.back().node_);
  return id;
}

void Cluster::submit_reconfig(const std::vector<ReplicaId>& adds,
                              const std::vector<ReplicaId>& removes,
                              uint32_t new_f, uint32_t new_c) {
  ReconfigDelta delta;
  for (ReplicaId id : adds) delta.adds.push_back({id, replica(id).node()});
  delta.removes = removes;
  delta.new_f = new_f;
  delta.new_c = opts_.kind == ProtocolKind::kSbft ? new_c : 0;

  // Harness view of the post-activation roster (epoch-key dealing and future
  // joiner bootstraps read it).
  std::vector<ReplicaInfo> next = current_members_;
  next.erase(std::remove_if(next.begin(), next.end(),
                            [&](const ReplicaInfo& m) {
                              return std::find(removes.begin(), removes.end(),
                                               m.id) != removes.end();
                            }),
             next.end());
  for (const ReplicaInfo& add : delta.adds) next.push_back(add);
  std::sort(next.begin(), next.end(),
            [](const ReplicaInfo& a, const ReplicaInfo& b) { return a.id < b.id; });
  SBFT_CHECK(next.size() == 3ull * new_f + 2ull * delta.new_c + 1);

  if (opts_.kind != ProtocolKind::kPbft) {
    // Trusted-dealer re-keying for the new roster (docs/reconfiguration.md):
    // signer index k belongs to the member of epoch rank k-1. Real threshold
    // RSA would need a re-dealing ceremony; the sim-BLS scheme is what the
    // reconfiguration scenarios run.
    SBFT_CHECK(!opts_.use_real_threshold_crypto);
    Rng epoch_rng(opts_.seed ^ (0xec0cull + next_epoch_));
    epoch_keys_->provision(
        next_epoch_, core::ClusterKeys::generate_for(
                         epoch_rng, static_cast<uint32_t>(next.size()), new_f,
                         delta.new_c));
  }

  // Inject the administrative request to every current member; whichever is
  // primary orders it.
  auto msg = make_message(ReconfigBlockMsg{delta, next_epoch_});
  for (const ReplicaInfo& m : current_members_) {
    net_->inject(m.node, m.node, msg);
  }
  current_members_ = std::move(next);
  current_f_ = new_f;
  current_c_ = delta.new_c;
  ++next_epoch_;
}

void Cluster::crash_replica(ReplicaId r) {
  ReplicaHandle& handle = replica(r);
  net_->crash(handle.node());
  // Lifecycle marker: lets trace consumers segment the stream by incarnation
  // (a restarted replica's execution cursor may legitimately move back).
  if (handle.tracer_) {
    handle.tracer_->instant(sim_->now(), obs::Category::kSlot,
                            obs::ev::kReplicaCrashed);
  }
}

void Cluster::restart_replica(ReplicaId r, bool wipe_storage) {
  ReplicaHandle& handle = replica(r);
  SBFT_CHECK(net_->crashed(handle.node()));
  if (wipe_storage) {
    handle.ledger_ = std::make_shared<storage::MemoryLedgerStorage>();
    handle.wal_ = std::make_shared<recovery::MemoryWal>();
  }
  // The tracer and registry survive the restart like the disk does: the new
  // incarnation appends to the same stream, after a restart marker.
  if (handle.tracer_) {
    handle.tracer_->instant(sim_->now(), obs::Category::kSlot,
                            obs::ev::kReplicaRestarted, 0, 0, 0, "wiped",
                            wipe_storage ? 1 : 0);
  }
  build_replica(handle, core::ReplicaBehavior::kHonest, /*recovering=*/true);
  net_->restart(handle.node(), handle.actor());
}

void Cluster::run_for(sim::SimTime sim_time_us) {
  if (!started_) {
    started_ = true;
    net_->start();
  }
  sim_->run_until(sim_->now() + sim_time_us);
}

bool Cluster::run_until_done(sim::SimTime deadline_us) {
  if (!started_) {
    started_ = true;
    net_->start();
  }
  while (sim_->now() < deadline_us) {
    bool all_done = std::all_of(clients_.begin(), clients_.end(),
                                [](const auto& c) { return c->done(); });
    if (all_done) return true;
    if (sim_->idle()) return false;  // deadlock would be a bug; surface it
    sim_->run_until(std::min(deadline_us, sim_->now() + 50'000));
  }
  return std::all_of(clients_.begin(), clients_.end(),
                     [](const auto& c) { return c->done(); });
}

core::SbftReplica* Cluster::sbft_replica(ReplicaId id) { return replica(id).sbft(); }

pbft::PbftReplica* Cluster::pbft_replica(ReplicaId id) { return replica(id).pbft(); }

void Cluster::partition(const std::vector<ReplicaId>& side) {
  std::vector<NodeId> inside;
  for (ReplicaId r : side) inside.push_back(replica(r).node());
  auto is_inside = [&](NodeId n) {
    return std::find(inside.begin(), inside.end(), n) != inside.end();
  };
  NodeId total = net_->num_nodes();
  for (NodeId a : inside) {
    for (NodeId b = 0; b < total; ++b) {
      if (a != b && !is_inside(b)) net_->disconnect(a, b);
    }
  }
}

void Cluster::heal_partitions() { net_->clear_link_faults(); }

std::vector<std::string> Cluster::audit_state_convergence() const {
  std::vector<ReplicaStateView> views;
  for (const ReplicaHandle& h : replicas_) {
    ReplicaStateView v;
    v.id = h.id();
    v.live = !net_->crashed(h.node());
    v.member = std::any_of(
        current_members_.begin(), current_members_.end(),
        [&](const ReplicaInfo& m) { return m.id == h.id(); });
    v.silent = h.silent();
    v.executed = h.last_executed();
    v.stable = h.last_stable();
    v.state_root = h.service().state_digest();
    views.push_back(std::move(v));
  }
  return harness::audit_state_convergence(views);
}

std::vector<std::string> Cluster::audit_reply_caches() const {
  std::vector<std::pair<ReplicaId, const runtime::ReplyCache*>> caches;
  for (const ReplicaHandle& h : replicas_) {
    caches.emplace_back(h.id(), &h.runtime().replies());
  }
  return harness::audit_reply_caches(caches);
}

SeqNum Cluster::min_executed() const {
  SeqNum lo = UINT64_MAX;
  for (const ReplicaHandle& h : replicas_) {
    if (net_->crashed(h.node())) continue;
    lo = std::min(lo, h.last_executed());
  }
  return lo == UINT64_MAX ? 0 : lo;
}

SeqNum Cluster::max_executed() const {
  SeqNum hi = 0;
  for (const ReplicaHandle& h : replicas_) hi = std::max(hi, h.last_executed());
  return hi;
}

uint64_t Cluster::total_fast_commits() const {
  uint64_t total = 0;
  for (const ReplicaHandle& h : replicas_) {
    if (h.sbft()) total += h.sbft()->stats().fast_commits;
  }
  return total;
}

uint64_t Cluster::total_slow_commits() const {
  uint64_t total = 0;
  for (const ReplicaHandle& h : replicas_) {
    if (h.sbft()) total += h.sbft()->stats().slow_commits;
  }
  return total;
}

uint64_t Cluster::total_recoveries() const {
  uint64_t total = 0;
  for (const ReplicaHandle& h : replicas_) total += h.runtime_stats().recoveries;
  return total;
}

uint64_t Cluster::total_wal_bytes_written() const {
  // Sum over the durable handles, not the replica stats: the handle's counter
  // spans every incarnation of the replica.
  uint64_t total = 0;
  for (const ReplicaHandle& h : replicas_) total += h.wal()->bytes_written();
  return total;
}

uint64_t Cluster::total_view_changes() const {
  uint64_t total = 0;
  for (const ReplicaHandle& h : replicas_) total += h.view_changes();
  return total;
}

std::vector<const obs::Tracer*> Cluster::tracers() const {
  std::vector<const obs::Tracer*> out;
  for (const ReplicaHandle& h : replicas_) {
    if (h.tracer()) out.push_back(h.tracer().get());
  }
  return out;
}

std::string Cluster::trace_json() const { return obs::chrome_trace_json(tracers()); }

bool Cluster::dump_trace(const std::string& path) const {
  return obs::write_chrome_trace(path, tracers());
}

obs::CheckReport Cluster::check_trace() const {
  // The fast-quorum invariant only applies when a fast path exists; PBFT and
  // Linear-PBFT commit through prepare/commit quorums exclusively. A slot's
  // fast quorum is that of the epoch ordering it, read from the longest
  // membership history that has every epoch since genesis. Epoch ids rise
  // strictly, so such a history ends at id size() - 1; one that skips an id
  // belongs to a replica that state-transferred past that epoch's activation.
  obs::TraceChecker::FastQuorum fast_quorum;
  if (config_.fast_path_enabled) {
    const runtime::MembershipManager* witness = nullptr;
    for (const ReplicaHandle& h : replicas_) {
      const runtime::MembershipManager& m = h.runtime().membership();
      const size_t epochs = m.history().size();
      if (epochs > 0 && m.active().epoch + 1 == epochs &&
          (!witness || epochs > witness->history().size())) {
        witness = &m;
      }
    }
    SBFT_CHECK(witness != nullptr);
    fast_quorum = [membership = *witness](uint64_t seq) {
      return membership.epoch_for_seq(seq).fast_quorum();
    };
  }
  obs::TraceChecker checker(std::move(fast_quorum));
  for (const ReplicaHandle& h : replicas_) {
    if (h.tracer()) {
      checker.add_replica(h.id(), h.tracer()->events(), h.tracer()->dropped());
    }
  }
  return checker.run();
}

bool Cluster::check_agreement(SeqNum* bad_seq) const {
  SeqNum hi = max_executed();
  for (SeqNum s = 1; s <= hi; ++s) {
    std::optional<Digest> expect;
    for (const ReplicaHandle& h : replicas_) {
      std::optional<Digest> got = h.committed_digest_of(s);
      if (!got) continue;
      if (!expect) {
        expect = got;
      } else if (!(*expect == *got)) {
        if (bad_seq) *bad_seq = s;
        return false;
      }
    }
  }
  return true;
}

}  // namespace sbft::harness
