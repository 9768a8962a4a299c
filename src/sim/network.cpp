#include "sim/network.h"

#include <algorithm>
#include <cmath>

namespace sbft::sim {

// ---------------------------------------------------------------------------
// Topologies
//
// Latency values are one-way, synthesized from typical AWS inter-region RTTs
// (see EXPERIMENTS.md for the calibration notes).

Topology lan_topology() {
  Topology t;
  t.name = "lan";
  t.region_latency_us = {{100}};
  t.jitter_us = 50;
  t.bandwidth_bytes_per_us = 1250.0;  // 10 Gbit/s
  return t;
}

Topology continent_topology() {
  // 5 regions, 2 availability zones each => 10 zones. Zones in the same
  // region are ~1ms apart; cross-region one-way latencies 6..22 ms
  // (us-east <-> us-west scale distances).
  Topology t;
  t.name = "continent";
  const int R = 5;
  // Base one-way latency between distinct regions (ms).
  const int64_t base[R][R] = {
      {0, 8, 12, 18, 22},
      {8, 0, 6, 14, 18},
      {12, 6, 0, 10, 14},
      {18, 14, 10, 0, 8},
      {22, 18, 14, 8, 0},
  };
  const int Z = 2 * R;
  t.region_latency_us.assign(Z, std::vector<int64_t>(Z, 0));
  for (int a = 0; a < Z; ++a) {
    for (int b = 0; b < Z; ++b) {
      if (a == b) {
        t.region_latency_us[a][b] = 150;  // same zone
      } else if (a / 2 == b / 2) {
        t.region_latency_us[a][b] = 1000;  // sibling zone, same region
      } else {
        t.region_latency_us[a][b] = base[a / 2][b / 2] * 1000;
      }
    }
  }
  t.jitter_us = 1000;
  t.bandwidth_bytes_per_us = 1000.0;  // ~8 Gbit/s effective per node
  return t;
}

Topology world_topology() {
  // 15 regions spread over all continents (§IX). One-way latencies are
  // derived from a coarse geographic ring: us-e, us-w, ca, br, eu-w, eu-c,
  // eu-n, me, in, sg, jp, kr, au, za, cn.
  Topology t;
  t.name = "world";
  const int R = 15;
  // Coordinates on a coarse "longitude" scale used to synthesize distances.
  const double x[R] = {0, 3, 1, 4, 8, 9, 9.5, 12, 14, 16, 18, 17.5, 17, 11, 16.5};
  const double y[R] = {4, 4, 5, -1, 5, 5, 6, 3, 2, 0, 4, 4, -3, -2, 4};
  t.region_latency_us.assign(R, std::vector<int64_t>(R, 0));
  for (int a = 0; a < R; ++a) {
    for (int b = 0; b < R; ++b) {
      if (a == b) {
        t.region_latency_us[a][b] = 300;
        continue;
      }
      double dx = x[a] - x[b];
      double dy = y[a] - y[b];
      double dist = std::sqrt(dx * dx + dy * dy);
      // ~7ms of one-way latency per coordinate unit + 5ms fixed overhead;
      // yields ~12..140ms one-way, matching world-scale WAN measurements.
      t.region_latency_us[a][b] = static_cast<int64_t>(5000 + 7000 * dist);
    }
  }
  t.jitter_us = 2000;
  t.bandwidth_bytes_per_us = 1000.0;
  return t;
}

// ---------------------------------------------------------------------------
// ActorContext

const CostModel& ActorContext::costs() const { return net_.costs(); }
Rng& ActorContext::rng() { return net_.node_rng(self_); }

void ActorContext::offload(int64_t cost_us, Handler done) {
  if (net_.cores(self_) <= 1) {
    // Single lane: the "offloaded" work runs right here, serially, exactly
    // as the pre-lane model charged it.
    ++net_.nodes_[self_].offloads_run;
    charge(cost_us);
    done(*this);
    return;
  }
  // Buffered like sends/timers: the work starts when this handler's charged
  // CPU completes, on the earliest-free worker lane (see Network::flush).
  if (!first_offload_) {
    first_offload_.emplace(PendingOffload{cost_us, std::move(done)});
  } else {
    more_offloads_.push_back({cost_us, std::move(done)});
  }
}

// ---------------------------------------------------------------------------
// Network

Network::Network(Simulator& sim, Topology topology, CostModel costs, uint64_t seed)
    : sim_(sim), topology_(std::move(topology)), costs_(costs), link_rng_(seed) {}

NodeId Network::add_node(IActor* actor) {
  return add_node(actor, num_nodes() % topology_.num_regions());
}

NodeId Network::add_node(IActor* actor, uint32_t region) {
  SBFT_CHECK(region < topology_.num_regions());
  NodeState state;
  state.actor = actor;
  state.region = region;
  state.rng = link_rng_.fork();
  nodes_.push_back(std::move(state));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::start() {
  for (NodeId id = 0; id < num_nodes(); ++id) {
    sim_.schedule(0, [this, id] {
      run_handler(id, sim_.now(),
                  [this, id](ActorContext& ctx) { nodes_[id].actor->on_start(ctx); });
    });
  }
}

void Network::start_node(NodeId node) {
  sim_.schedule(sim_.now(), [this, node] {
    run_handler(node, sim_.now(),
                [this, node](ActorContext& ctx) { nodes_[node].actor->on_start(ctx); });
  });
}

void Network::crash(NodeId node) { nodes_[node].crashed = true; }

void Network::restart(NodeId node, IActor* actor) {
  NodeState& state = nodes_[node];
  SBFT_CHECK(state.crashed);
  state.crashed = false;
  ++state.incarnation;
  if (actor) state.actor = actor;
  // Runtime state died with the process; every lane and the link are idle
  // when it boots. Pending offload completions and drains from the dead
  // incarnation are dropped by the incarnation gate when they fire.
  state.cpu_queue.clear();
  state.drain_scheduled = false;
  for (SimTime& busy : state.lane_busy) busy = sim_.now();
  state.uplink_busy = sim_.now();
  state.downlink_busy = sim_.now();
  sim_.schedule(sim_.now(), [this, node] {
    run_handler(node, sim_.now(),
                [this, node](ActorContext& ctx) { nodes_[node].actor->on_start(ctx); });
  });
}

void Network::set_cpu_factor(NodeId node, double factor) {
  nodes_[node].cpu_factor = factor;
}

void Network::set_cores(NodeId node, uint32_t k) {
  SBFT_CHECK(k >= 1);
  NodeState& state = nodes_[node];
  state.lane_busy.resize(k, 0);
  state.lane_used_us.resize(k, 0);
}

int64_t Network::cpu_used_us(NodeId node) const {
  int64_t total = 0;
  for (int64_t used : nodes_[node].lane_used_us) total += used;
  return total;
}

void Network::offload(NodeId node, int64_t cost_us, Handler done) {
  NodeState& state = nodes_[node];
  if (state.crashed) return;
  if (state.lane_busy.size() <= 1) {
    // Single lane: queue the work as an ordinary serial handler.
    ++state.offloads_run;
    run_handler(node, sim_.now(),
                [cost_us, done = std::move(done)](ActorContext& ctx) mutable {
                  ctx.charge(cost_us);
                  done(ctx);
                });
    return;
  }
  dispatch_offload(node, cost_us, std::move(done), sim_.now());
}

void Network::dispatch_offload(NodeId node, int64_t cost_us, Handler done,
                               SimTime earliest) {
  NodeState& state = nodes_[node];
  // Earliest-free worker lane; ties break to the lowest index (deterministic).
  size_t lane = 1;
  for (size_t l = 2; l < state.lane_busy.size(); ++l) {
    if (state.lane_busy[l] < state.lane_busy[lane]) lane = l;
  }
  SimTime begin = std::max(earliest, state.lane_busy[lane]);
  int64_t scaled =
      static_cast<int64_t>(static_cast<double>(cost_us) * state.cpu_factor);
  SimTime finish = begin + scaled;
  state.lane_busy[lane] = finish;
  state.lane_used_us[lane] += scaled;
  ++state.offloads_run;
  uint64_t inc = state.incarnation;
  auto complete = [this, node, inc, done = std::move(done)]() mutable {
    // The completion continues the protocol state machine, so it re-enters
    // the serial lane — and dies if the incarnation that queued it did.
    if (nodes_[node].crashed || nodes_[node].incarnation != inc) return;
    run_handler(node, sim_.now(), std::move(done));
  };
  static_assert(Event::stores_inline<decltype(complete)>());
  sim_.schedule(finish, std::move(complete));
}

void Network::set_extra_latency(NodeId node, int64_t us) {
  nodes_[node].extra_latency_us = us;
}

void Network::disconnect(NodeId a, NodeId b) {
  cut_links_.insert({std::min(a, b), std::max(a, b)});
}

void Network::reconnect(NodeId a, NodeId b) {
  cut_links_.erase({std::min(a, b), std::max(a, b)});
}

void Network::block_link(NodeId from, NodeId to) {
  blocked_links_.insert({from, to});
}

void Network::unblock_link(NodeId from, NodeId to) {
  blocked_links_.erase({from, to});
}

void Network::set_reorder(double probability, int64_t max_extra_us) {
  reorder_probability_ = probability;
  reorder_max_extra_us_ = max_extra_us;
}

void Network::clear_link_faults() {
  cut_links_.clear();
  blocked_links_.clear();
  reorder_probability_ = 0.0;
  reorder_max_extra_us_ = 0;
  drop_probability_ = 0.0;
}

void Network::inject(NodeId from, NodeId to, MessagePtr msg) {
  size_t wire_size = message_wire_size(*msg);
  stats_[msg->index()].count += 1;
  stats_[msg->index()].bytes += wire_size;
  transmit(from, to, std::move(msg), wire_size, sim_.now());
}

MessageStats Network::total_stats() const {
  MessageStats total;
  for (const auto& s : stats_) {
    total.count += s.count;
    total.bytes += s.bytes;
  }
  return total;
}

void Network::reset_stats() { stats_.fill(MessageStats{}); }

void Network::run_handler(NodeId node, SimTime at, Handler fn) {
  NodeState& state = nodes_[node];
  if (state.crashed) return;
  if (state.lane_busy[0] > at || !state.cpu_queue.empty()) {
    // Serial lane busy: enqueue FIFO and make sure a drain fires when it
    // frees up.
    state.cpu_queue.push_back(std::move(fn));
    schedule_drain(node, std::max(state.lane_busy[0], at));
    return;
  }
  execute_handler(node, at, fn);
}

void Network::execute_handler(NodeId node, SimTime at, Handler& fn) {
  ActorContext ctx(*this, node, at);
  fn(ctx);
  flush(node, ctx);
}

void Network::schedule_drain(NodeId node, SimTime at) {
  NodeState& state = nodes_[node];
  if (state.drain_scheduled) return;
  state.drain_scheduled = true;
  uint64_t inc = state.incarnation;
  sim_.schedule(std::max(at, sim_.now()), [this, node, inc] {
    if (nodes_[node].incarnation == inc) drain(node);
  });
}

void Network::drain(NodeId node) {
  NodeState& state = nodes_[node];
  state.drain_scheduled = false;
  if (state.crashed) {
    state.cpu_queue.clear();
    return;
  }
  if (state.cpu_queue.empty()) return;
  if (state.lane_busy[0] > sim_.now()) {
    schedule_drain(node, state.lane_busy[0]);
    return;
  }
  Handler fn = std::move(state.cpu_queue.front());
  state.cpu_queue.pop_front();
  execute_handler(node, sim_.now(), fn);
  if (!state.cpu_queue.empty()) schedule_drain(node, state.lane_busy[0]);
}

void Network::flush(NodeId node, ActorContext& ctx) {
  NodeState& state = nodes_[node];
  int64_t cpu = static_cast<int64_t>(static_cast<double>(ctx.charged_) * state.cpu_factor);
  SimTime done = ctx.start_ + cpu;
  state.lane_busy[0] = done;
  state.lane_used_us[0] += cpu;
  ++state.handlers_run;

  // Offloaded work starts when the handler that requested it completes —
  // the handler "hands off" to a worker lane at its end, like sends depart
  // at `done`.
  if (ctx.first_offload_) {
    dispatch_offload(node, ctx.first_offload_->cost_us,
                     std::move(ctx.first_offload_->done), done);
  }
  for (auto& o : ctx.more_offloads_) {
    dispatch_offload(node, o.cost_us, std::move(o.done), done);
  }

  // Broadcasts enqueue the same payload many times; compute its wire size
  // once per distinct message object.
  const Message* last_msg = nullptr;
  size_t last_size = 0;
  for (auto& p : ctx.sends_) {
    if (p.msg.get() != last_msg) {
      last_msg = p.msg.get();
      last_size = message_wire_size(*p.msg);
    }
    stats_[p.msg->index()].count += 1;
    stats_[p.msg->index()].bytes += last_size;
    transmit(node, p.to, std::move(p.msg), last_size, done);
  }
  for (auto& t : ctx.timers_) {
    uint64_t id = t.id;
    // Timers are process-local: if the node crashes and restarts before the
    // timer fires, the new incarnation must not inherit it.
    uint64_t inc = state.incarnation;
    sim_.schedule(done + t.delay_us, [this, node, id, inc] {
      if (nodes_[node].incarnation != inc) return;
      run_handler(node, sim_.now(), [this, node, id](ActorContext& c) {
        nodes_[node].actor->on_timer(id, c);
      });
    });
  }
}

void Network::transmit(NodeId from, NodeId to, MessagePtr msg, size_t wire_size,
                       SimTime depart) {
  NodeState& src = nodes_[from];
  if (src.crashed) return;
  if (to >= num_nodes()) return;
  if (from == to) {
    // Local delivery: no link involved.
    deliver(from, to, std::move(msg), wire_size, depart);
    return;
  }
  if (cut_links_.count({std::min(from, to), std::max(from, to)})) return;
  if (!blocked_links_.empty() && blocked_links_.count({from, to})) return;
  if (drop_probability_ > 0 && link_rng_.chance(drop_probability_)) return;

  // Uplink serialization at the sender.
  int64_t tx = static_cast<int64_t>(static_cast<double>(wire_size) /
                                    topology_.bandwidth_bytes_per_us) + 1;
  SimTime tx_start = std::max(depart, src.uplink_busy);
  SimTime tx_end = tx_start + tx;
  src.uplink_busy = tx_end;

  // Propagation.
  NodeState& dst = nodes_[to];
  int64_t latency = topology_.region_latency_us[src.region][dst.region] +
                    src.extra_latency_us + dst.extra_latency_us +
                    static_cast<int64_t>(link_rng_.below(
                        static_cast<uint64_t>(std::max<int64_t>(topology_.jitter_us, 1))));
  if (reorder_probability_ > 0 && link_rng_.chance(reorder_probability_)) {
    latency += static_cast<int64_t>(link_rng_.below(
        static_cast<uint64_t>(std::max<int64_t>(reorder_max_extra_us_, 1))));
  }
  deliver(from, to, std::move(msg), wire_size, tx_end + latency);
}

void Network::deliver(NodeId from, NodeId to, MessagePtr msg, size_t wire_size,
                      SimTime arrival) {
  sim_.schedule(arrival, [this, from, to, msg = std::move(msg), wire_size]() mutable {
    NodeState& dst = nodes_[to];
    if (dst.crashed) return;
    // Downlink serialization at the receiver.
    SimTime rx_start = std::max(sim_.now(), dst.downlink_busy);
    int64_t rx = static_cast<int64_t>(static_cast<double>(wire_size) /
                                      topology_.bandwidth_bytes_per_us);
    SimTime ready = rx_start + rx;
    dst.downlink_busy = ready;
    sim_.schedule(ready, [this, from, to, msg = std::move(msg)]() mutable {
      // The handler owns the payload: run_handler may queue it if the
      // target CPU is busy, so it must outlive this event. It takes its
      // network and node from the context, and lends the context its
      // message for ActorContext::share.
      auto handler = [from, msg = std::move(msg)](ActorContext& ctx) {
        ctx.delivered_ = &msg;
        ctx.charge(ctx.costs().msg_overhead_us);
        ctx.net_.nodes_[ctx.self_].actor->on_message(from, *msg, ctx);
      };
      static_assert(Handler::stores_inline<decltype(handler)>());
      run_handler(to, sim_.now(), std::move(handler));
    });
  });
}

}  // namespace sbft::sim
