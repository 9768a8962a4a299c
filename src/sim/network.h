// Simulated network and node runtime.
//
// Nodes (replicas and clients) are actors on a shared discrete-event
// simulator. The model captures exactly the resources the paper's evaluation
// exercises on AWS:
//   * per-node CPU lanes (lane 0 runs handlers sequentially — message
//     dispatch and state mutation stay serial; lanes 1..k-1 absorb work
//     explicitly offloaded by handlers, modelling the paper's parallelized
//     signature verification across a replica's cores — see
//     docs/performance.md),
//   * per-node uplink/downlink serialization (a broadcast is n unicasts that
//     serialize on the sender's uplink — this is what makes all-to-all
//     quadratic patterns hurt and collector patterns win),
//   * region-to-region propagation latency with jitter,
//   * fault injection: crash, straggler slowdown, message drop, partitions.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "proto/message.h"
#include "sim/cost_model.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace sbft::sim {

struct Topology {
  std::string name;
  // One-way propagation latency between regions, microseconds.
  std::vector<std::vector<int64_t>> region_latency_us;
  int64_t jitter_us = 500;           // uniform [0, jitter) added per message
  double bandwidth_bytes_per_us = 50.0;  // per-node up/downlink (~400 Mbit/s)

  uint32_t num_regions() const { return static_cast<uint32_t>(region_latency_us.size()); }
};

/// Single-region LAN (unit tests): 100us one-way, high bandwidth.
Topology lan_topology();
/// 5 regions / 2 AZ per region on one continent (§IX "Continent scale WAN").
Topology continent_topology();
/// 15 regions across all continents (§IX "World scale WAN").
Topology world_topology();

class Network;
class ActorContext;

/// A lane-0 handler or offload continuation, a 32-byte object: thousands
/// queue behind a busy lane at once. Its 24 bytes in place hold one shared
/// pointer and one word: a delivery handler's `[from, msg]`, or an engine's
/// `[this, shared]` continuation over a vote, which shares the delivered
/// message (ActorContext::share) instead of copying the vote.
using Handler = InlineFunction<void(ActorContext&), 24>;
static_assert(sizeof(Handler) == 32);

/// Handler-scoped context: buffers sends and timers so that everything a
/// handler emits departs when its charged CPU time completes.
class ActorContext {
 public:
  SimTime now() const { return start_; }
  const CostModel& costs() const;
  Rng& rng();

  /// Adds simulated CPU time to this handler.
  void charge(int64_t us) { charged_ += us; }

  /// Hands `cost_us` of parallelizable work (signature verification, share
  /// combination) to a worker lane; `done` continues the protocol state
  /// machine as a fresh lane-0 handler when the work completes. On a
  /// single-lane node this degenerates to charge(cost_us) + done(*this)
  /// inline, so engine code restructured around offload() is byte-identical
  /// to the serial model at cores=1. Completions are incarnation-gated: a
  /// callback queued before a crash+restart never fires.
  void offload(int64_t cost_us, Handler done);

  void send(NodeId to, MessagePtr msg) { sends_.push_back({to, std::move(msg)}); }
  /// Schedules on_timer(id) `delay` after this handler completes.
  void set_timer(int64_t delay_us, uint64_t id) { timers_.push_back({delay_us, id}); }

  /// Keeps `part` alive past this handler, for a closure that outlives it
  /// (an offload continuation, a held message): a pointer into the
  /// delivered message when `part` lies inside it, so nothing is copied,
  /// and a pointer to a copy of `part` otherwise.
  template <typename T>
  std::shared_ptr<const T> share(const T& part) const {
    if (delivered_ != nullptr) {
      auto begin = reinterpret_cast<uintptr_t>(delivered_->get());
      auto at = reinterpret_cast<uintptr_t>(&part);
      if (at >= begin && at + sizeof(T) <= begin + sizeof(Message)) {
        return std::shared_ptr<const T>(*delivered_, &part);
      }
    }
    return std::make_shared<const T>(part);
  }

 private:
  friend class Network;
  ActorContext(Network& net, NodeId self, SimTime start)
      : net_(net), self_(self), start_(start) {}

  struct PendingSend {
    NodeId to;
    MessagePtr msg;
  };
  struct PendingTimer {
    int64_t delay_us;
    uint64_t id;
  };
  struct PendingOffload {
    int64_t cost_us;
    Handler done;
  };

  Network& net_;
  NodeId self_;
  SimTime start_;
  // The message this handler delivers, in its handler's capture; null for
  // timers, offload completions and on_start.
  const MessagePtr* delivered_ = nullptr;
  int64_t charged_ = 0;
  std::vector<PendingSend> sends_;
  std::vector<PendingTimer> timers_;
  // A handler rarely offloads more than once (one signature check per
  // vote), so the first pending offload is held here and costs no
  // allocation; later ones queue behind it in `more_offloads_`.
  std::optional<PendingOffload> first_offload_;
  std::vector<PendingOffload> more_offloads_;
};

class IActor {
 public:
  virtual ~IActor() = default;
  virtual void on_start(ActorContext&) {}
  virtual void on_message(NodeId from, const Message& msg, ActorContext&) = 0;
  virtual void on_timer(uint64_t, ActorContext&) {}
};

struct MessageStats {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

class Network {
 public:
  Network(Simulator& sim, Topology topology, CostModel costs, uint64_t seed = 1);

  /// Registers an actor; nodes are placed round-robin across regions unless a
  /// region is given. Returns the node id.
  NodeId add_node(IActor* actor);
  NodeId add_node(IActor* actor, uint32_t region);
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }

  /// Delivers on_start to every node at time 0.
  void start();
  /// Delivers on_start to one node at the current simulated time — for nodes
  /// added after start() (e.g. a replica joining via reconfiguration).
  void start_node(NodeId node);

  // --- fault injection -------------------------------------------------------
  void crash(NodeId node);
  bool crashed(NodeId node) const { return nodes_[node].crashed; }
  /// Re-admits a crashed node: clears the crash flag, bumps the node's
  /// incarnation (pending timers from the dead incarnation never fire; in-
  /// flight *messages* still arrive — the network outlives the process), and
  /// delivers on_start at the current simulated time. Pass `actor` to swap in
  /// a freshly constructed actor (a restarted replica rebuilding itself from
  /// its storage); nullptr keeps the existing object.
  void restart(NodeId node, IActor* actor = nullptr);
  /// Restart count of the node (0 = original incarnation).
  uint64_t incarnation(NodeId node) const { return nodes_[node].incarnation; }
  /// Straggler: multiplies the node's CPU costs on every lane (1.0 = nominal).
  void set_cpu_factor(NodeId node, double factor);
  /// Resizes the node's CPU to `k` lanes (k >= 1). Lane 0 stays the serial
  /// handler lane; lanes 1..k-1 serve offload() work. New nodes start with
  /// one lane.
  void set_cores(NodeId node, uint32_t k);
  uint32_t cores(NodeId node) const {
    return static_cast<uint32_t>(nodes_[node].lane_busy.size());
  }
  /// Queues `cost_us` of work on the node's earliest-free worker lane at the
  /// current simulated time; `done` runs as a lane-0 handler on completion.
  /// On a single-lane node the work runs (and is charged) on lane 0. Engines
  /// should prefer ActorContext::offload — this entry point exists for tests
  /// and for work initiated outside a handler.
  void offload(NodeId node, int64_t cost_us, Handler done);
  /// Extra one-way latency for all messages to/from this node.
  void set_extra_latency(NodeId node, int64_t us);
  /// Uniform message drop probability (applies to every link).
  void set_drop_probability(double p) { drop_probability_ = p; }
  /// Cuts / restores the pair link (both directions).
  void disconnect(NodeId a, NodeId b);
  void reconnect(NodeId a, NodeId b);
  /// Directional blackhole: every message from `from` to `to` is dropped
  /// (the reverse direction stays up). Models asymmetric link loss and
  /// network-level censorship — e.g. a primary that never hears one client.
  void block_link(NodeId from, NodeId to);
  void unblock_link(NodeId from, NodeId to);
  /// Random reordering: each transmitted message independently receives, with
  /// `probability`, an extra uniform delay in [0, max_extra_us) — enough to
  /// overtake later traffic on the same link. probability 0 disables the
  /// feature and draws nothing from the RNG, so runs without it are
  /// byte-identical to the pre-knob model.
  void set_reorder(double probability, int64_t max_extra_us);
  /// Clears every link-level fault in one stroke: pair cuts, directional
  /// blocks, the reorder knob, and the drop probability.
  /// Per-node faults (crash, cpu factor, extra latency) are untouched.
  void clear_link_faults();

  /// Test hook: injects a message from `from` to `to` at the current
  /// simulated time, as if `from` had sent it from a handler (normal latency,
  /// bandwidth, and drop rules apply). Lets scenario tests replay a specific
  /// message — e.g. a duplicate client request against a restarted replica —
  /// without scripting a full actor.
  void inject(NodeId from, NodeId to, MessagePtr msg);

  // --- statistics ------------------------------------------------------------
  const std::array<MessageStats, std::variant_size_v<Message>>& stats_by_type() const {
    return stats_;
  }
  MessageStats total_stats() const;
  void reset_stats();

  const CostModel& costs() const { return costs_; }
  Simulator& simulator() { return sim_; }
  Rng& node_rng(NodeId node) { return nodes_[node].rng; }
  /// Total charged CPU across all lanes (utilization probe).
  int64_t cpu_used_us(NodeId node) const;
  /// Cumulative charged CPU per lane (index 0 = serial handler lane).
  /// Survives restart: utilization is a property of the node, not the
  /// incarnation.
  const std::vector<int64_t>& lane_used_us(NodeId node) const {
    return nodes_[node].lane_used_us;
  }
  /// Number of offloads dispatched to worker lanes (plus inline-run offloads
  /// on single-lane nodes).
  uint64_t offloads_run(NodeId node) const { return nodes_[node].offloads_run; }
  uint64_t handlers_run(NodeId node) const { return nodes_[node].handlers_run; }
  size_t cpu_queue_depth(NodeId node) const { return nodes_[node].cpu_queue.size(); }

 private:
  friend class ActorContext;

  struct NodeState {
    // Move-only (the handler queue is): nodes_ moves its elements as it grows.
    NodeState() = default;
    NodeState(NodeState&&) = default;
    NodeState(const NodeState&) = delete;

    IActor* actor = nullptr;
    uint32_t region = 0;
    bool crashed = false;
    double cpu_factor = 1.0;
    int64_t extra_latency_us = 0;
    // Per-lane busy-until timestamps. Lane 0 is the serial handler lane
    // (message dispatch, state mutation); lanes 1..k-1 serve offload() work,
    // dispatched earliest-free (ties: lowest index).
    std::vector<SimTime> lane_busy{0};
    SimTime uplink_busy = 0;
    SimTime downlink_busy = 0;
    // FIFO of handlers waiting for the node's serial lane.
    std::deque<Handler> cpu_queue;
    bool drain_scheduled = false;
    // Bumped by restart(); gates the dead incarnation's timers, offload
    // completions and drains.
    uint64_t incarnation = 0;
    std::vector<int64_t> lane_used_us{0};  // cumulative charged CPU per lane
    uint64_t offloads_run = 0;
    uint64_t handlers_run = 0;
    Rng rng{0};
  };

  void transmit(NodeId from, NodeId to, MessagePtr msg, size_t wire_size,
                SimTime depart);
  void deliver(NodeId from, NodeId to, MessagePtr msg, size_t wire_size,
               SimTime arrival);
  void run_handler(NodeId node, SimTime at, Handler fn);
  void execute_handler(NodeId node, SimTime at, Handler& fn);
  void dispatch_offload(NodeId node, int64_t cost_us, Handler done,
                        SimTime earliest);
  void schedule_drain(NodeId node, SimTime at);
  void drain(NodeId node);
  void flush(NodeId node, ActorContext& ctx);

  Simulator& sim_;
  Topology topology_;
  CostModel costs_;
  std::vector<NodeState> nodes_;
  std::set<std::pair<NodeId, NodeId>> cut_links_;
  std::set<std::pair<NodeId, NodeId>> blocked_links_;  // directional
  double reorder_probability_ = 0.0;
  int64_t reorder_max_extra_us_ = 0;
  double drop_probability_ = 0.0;
  Rng link_rng_;
  std::array<MessageStats, std::variant_size_v<Message>> stats_{};
};

}  // namespace sbft::sim
