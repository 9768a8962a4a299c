#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace sbft::sim {
namespace {

// A move-only capture that counts how many live instances were destroyed.
// A move hands liveness to the new object, so however often the queue
// relocates a closure, its capture reports exactly one destruction.
struct Probe {
  explicit Probe(int* destroyed) : destroyed_(destroyed) {}
  Probe(Probe&& other) noexcept
      : destroyed_(other.destroyed_), live_(std::exchange(other.live_, false)) {}
  Probe(const Probe&) = delete;
  ~Probe() {
    if (live_) ++*destroyed_;
  }

 private:
  int* destroyed_;
  bool live_ = true;
};

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(300, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    sim.after(5, [&] { ++fired; });
  });
  sim.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(100, [&] { ++fired; });
  sim.schedule(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, TiedRandomTimesRunInStableSortOrder) {
  // 10k events at times with many ties, scheduled between steps so that the
  // slots of run events are reused. They must run in the order of a stable
  // sort of the schedule calls by time.
  Simulator sim;
  Rng rng(17);
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<int> ran;
  for (int id = 0; id < 10'000; ++id) {
    SimTime at = sim.now() + static_cast<SimTime>(rng.below(40));
    scheduled.emplace_back(at, id);
    sim.schedule(at, [&sim, &ran, at, id] {
      EXPECT_EQ(sim.now(), at);
      ran.push_back(id);
    });
    if (rng.below(3) == 0) sim.step();
  }
  sim.run_until_idle();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> expected;
  for (const auto& entry : scheduled) expected.push_back(entry.second);
  EXPECT_EQ(ran, expected);
}

TEST(Simulator, HorizonsAcrossTheWindowRunInStableSortOrder) {
  // 20k events due now, soon, at the edges of the wheel's window and several
  // windows out, with steps and bare clock bumps in between. After a bump
  // the window still starts at the last event run, so events at the new
  // `now` and one window past it probe both edges. They must run at their
  // times, in the order of a stable sort of the schedule calls by time.
  constexpr SimTime kW = Simulator::kWheelSpan;
  const SimTime horizons[] = {0,      1,          2,      7,          39,         kW - 1,
                              kW,     kW + 1,     2 * kW, 2 * kW + 3, 3 * kW - 1, 5 * kW};
  Simulator sim;
  Rng rng(23);
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<int> ran;
  auto add = [&](SimTime at) {
    int id = static_cast<int>(scheduled.size());
    scheduled.emplace_back(at, id);
    sim.schedule(at, [&sim, &ran, at, id] {
      EXPECT_EQ(sim.now(), at);
      ran.push_back(id);
    });
  };
  auto horizon = [&] { return horizons[rng.below(std::size(horizons))]; };
  while (scheduled.size() < 20'000) {
    add(sim.now() + horizon());
    switch (rng.below(8)) {
      case 0:
        sim.step();
        break;
      case 1:
        sim.run_until(sim.now() + horizon() + static_cast<SimTime>(rng.below(50)));
        for (SimTime at : {SimTime{0}, kW - 1, kW, kW + 1}) add(sim.now() + at);
        break;
      default:
        break;
    }
  }
  sim.run_until_idle();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> expected;
  for (const auto& entry : scheduled) expected.push_back(entry.second);
  EXPECT_EQ(ran, expected);
}

TEST(Simulator, OverflowEventRunsBeforeALaterSameTimeEvent) {
  // A is due past the wheel's window, so it waits in the overflow heap. B is
  // scheduled for the same time once the clock has moved on; A was
  // scheduled first, so it runs first, whether the clock moved by running
  // an event or by a bare run_until.
  constexpr SimTime kAt = Simulator::kWheelSpan + 5;
  for (bool by_event : {true, false}) {
    SCOPED_TRACE(by_event ? "clock moved by an event" : "clock moved by run_until");
    Simulator sim;
    std::string order;
    sim.schedule(kAt, [&] { order += 'A'; });
    if (by_event) {
      sim.schedule(10, [] {});
      EXPECT_TRUE(sim.step());
    } else {
      sim.run_until(10);
    }
    ASSERT_EQ(sim.now(), 10);
    sim.schedule(kAt, [&] { order += 'B'; });
    sim.run_until_idle();
    EXPECT_EQ(order, "AB");
    EXPECT_EQ(sim.now(), kAt);
  }
}

TEST(Simulator, EventThatGrowsTheSlabKeepsItsCaptures) {
  // The running event stays in its slot while it schedules enough events to
  // add several slab chunks. Chunks never move, so its captures stay valid
  // (ASan checks).
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&sim, &fired, payload = std::vector<int>(64, 7)] {
    for (int i = 0; i < 4096; ++i) sim.after(1, [&fired] { ++fired; });
    EXPECT_EQ(payload, std::vector<int>(64, 7));
  });
  sim.run_until_idle();
  EXPECT_EQ(fired, 4096);
}

TEST(Simulator, MoveOnlyAndOversizedCapturesRunOnceAndDieOnce) {
  int runs = 0;
  int destroyed = 0;
  {
    Simulator sim;
    auto inline_fn = [&runs, probe = Probe(&destroyed)] { ++runs; };
    auto heap_fn = [&runs, probe = Probe(&destroyed), pad = std::array<char, 256>{}] {
      runs += 1 + pad[0];
    };
    static_assert(Event::stores_inline<decltype(inline_fn)>());
    static_assert(!Event::stores_inline<decltype(heap_fn)>());
    sim.schedule(10, std::move(inline_fn));
    sim.schedule(10, std::move(heap_fn));
    sim.step();  // frees a slot for the next events to reuse
    sim.schedule(20, [&runs, probe = Probe(&destroyed)] { ++runs; });
    sim.schedule(20, [&runs, probe = Probe(&destroyed), pad = std::array<char, 256>{}] {
      runs += 1 + pad[0];
    });
    // Still queued when the simulator goes away: destroyed, never run.
    sim.schedule(30, [probe = Probe(&destroyed), pad = std::array<char, 256>{}] {
      ADD_FAILURE() << "ran past run_until";
    });
    sim.run_until(25);
    EXPECT_EQ(runs, 4);
    EXPECT_EQ(destroyed, 4);
  }
  EXPECT_EQ(destroyed, 5);
}

// ---------------------------------------------------------------------------
// Network

struct Recorder : IActor {
  std::vector<std::pair<NodeId, SimTime>> received;
  int64_t cpu_cost = 0;
  std::vector<NodeId> reply_to;

  void on_message(NodeId from, const Message&, ActorContext& ctx) override {
    received.emplace_back(from, ctx.now());
    if (cpu_cost) ctx.charge(cpu_cost);
    for (NodeId to : reply_to) {
      ctx.send(to, make_message(ClientReplyMsg{}));
    }
  }
};

struct Starter : IActor {
  NodeId target = 0;
  int copies = 1;
  void on_start(ActorContext& ctx) override {
    for (int i = 0; i < copies; ++i) {
      ctx.send(target, make_message(ClientRequestMsg{}));
    }
  }
  void on_message(NodeId, const Message&, ActorContext&) override {}
};

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 1u);
  // LAN latency is ~100us one-way plus jitter and transmission.
  EXPECT_GE(recorder.received[0].second, 100);
  EXPECT_LT(recorder.received[0].second, 1000);
}

TEST(Network, CrashedNodeReceivesNothing) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.crash(starter.target);
  net.start();
  sim.run_until_idle();
  EXPECT_TRUE(recorder.received.empty());
}

TEST(Network, CutLinkDropsBothDirections) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  Recorder recorder;
  NodeId a = net.add_node(&starter);
  NodeId b = net.add_node(&recorder);
  starter.target = b;
  net.disconnect(a, b);
  net.start();
  sim.run_until_idle();
  EXPECT_TRUE(recorder.received.empty());
}

TEST(Network, CpuSerializesProcessing) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 3;
  Recorder recorder;
  recorder.cpu_cost = 10'000;  // 10ms per message
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 3u);
  // Handlers must start at least 10ms apart (sequential CPU).
  EXPECT_GE(recorder.received[1].second, recorder.received[0].second + 10'000);
  EXPECT_GE(recorder.received[2].second, recorder.received[1].second + 10'000);
}

TEST(Network, StragglerCpuFactorSlowsNode) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 2;
  Recorder recorder;
  recorder.cpu_cost = 1000;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.set_cpu_factor(starter.target, 10.0);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(recorder.received.size(), 2u);
  EXPECT_GE(recorder.received[1].second, recorder.received[0].second + 10'000);
}

TEST(Network, WorldLatencyHigherThanLan) {
  CostModel costs;
  SimTime lan_time, world_time;
  {
    Simulator sim;
    Network net(sim, lan_topology(), costs);
    Starter s;
    Recorder r;
    net.add_node(&s);
    s.target = net.add_node(&r);
    net.start();
    sim.run_until_idle();
    lan_time = r.received[0].second;
  }
  {
    Simulator sim;
    Network net(sim, world_topology(), costs);
    Starter s;
    Recorder r;
    net.add_node(&s, 0);
    s.target = net.add_node(&r, 10);  // different continent
    net.start();
    sim.run_until_idle();
    world_time = r.received[0].second;
  }
  EXPECT_GT(world_time, lan_time * 10);
}

TEST(Network, StatsCountMessagesAndBytes) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 4;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.start();
  sim.run_until_idle();
  auto totals = net.total_stats();
  EXPECT_EQ(totals.count, 4u);
  EXPECT_GT(totals.bytes, 0u);
  net.reset_stats();
  EXPECT_EQ(net.total_stats().count, 0u);
}

TEST(Network, DropProbabilityLosesMessages) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  starter.copies = 200;
  Recorder recorder;
  net.add_node(&starter);
  starter.target = net.add_node(&recorder);
  net.set_drop_probability(0.5);
  net.start();
  sim.run_until_idle();
  EXPECT_LT(recorder.received.size(), 180u);
  EXPECT_GT(recorder.received.size(), 20u);
}

TEST(Network, TimersFireAfterDelay) {
  struct TimerActor : IActor {
    SimTime fired_at = -1;
    void on_start(ActorContext& ctx) override { ctx.set_timer(5000, 42); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
    void on_timer(uint64_t id, ActorContext& ctx) override {
      EXPECT_EQ(id, 42u);
      fired_at = ctx.now();
    }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  TimerActor actor;
  net.add_node(&actor);
  net.start();
  sim.run_until_idle();
  EXPECT_EQ(actor.fired_at, 5000);
}

TEST(Network, RestartReadmitsCrashedNode) {
  struct PeriodicSender : IActor {
    NodeId target = 0;
    void on_start(ActorContext& ctx) override { ctx.set_timer(1000, 0); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
    void on_timer(uint64_t, ActorContext& ctx) override {
      ctx.send(target, make_message(ClientRequestMsg{}));
      ctx.set_timer(1000, 0);
    }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  PeriodicSender sender;
  Recorder recorder;
  net.add_node(&sender);
  NodeId b = net.add_node(&recorder);
  sender.target = b;
  net.crash(b);
  net.start();
  sim.run_until(5000);
  EXPECT_TRUE(recorder.received.empty());  // crashed: deliveries dropped
  EXPECT_EQ(net.incarnation(b), 0u);

  net.restart(b);
  EXPECT_FALSE(net.crashed(b));
  EXPECT_EQ(net.incarnation(b), 1u);
  sim.run_until(15000);
  EXPECT_FALSE(recorder.received.empty());  // messages flow again
}

TEST(Network, RestartSwapsActorAndDeliversOnStart) {
  struct Counter : IActor {
    int started = 0;
    int messages = 0;
    void on_start(ActorContext&) override { ++started; }
    void on_message(NodeId, const Message&, ActorContext&) override { ++messages; }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Counter first, second;
  Starter starter;
  NodeId n0 = net.add_node(&starter);
  NodeId n1 = net.add_node(&first);
  starter.target = n1;
  (void)n0;
  net.start();
  sim.run_until_idle();
  EXPECT_EQ(first.started, 1);
  EXPECT_EQ(first.messages, 1);

  net.crash(n1);
  net.restart(n1, &second);
  sim.run_until_idle();
  // The replacement incarnation booted; the old object saw nothing new.
  EXPECT_EQ(second.started, 1);
  EXPECT_EQ(first.started, 1);
}

TEST(Network, StaleTimersDieWithTheCrashedIncarnation) {
  struct TimerActor : IActor {
    std::vector<SimTime> fired;
    void on_start(ActorContext& ctx) override { ctx.set_timer(5000, 1); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
    void on_timer(uint64_t, ActorContext& ctx) override { fired.push_back(ctx.now()); }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  TimerActor actor;
  NodeId node = net.add_node(&actor);
  net.start();
  sim.run_until(1000);  // timer armed at 0, fires at 5000
  net.crash(node);
  sim.run_until(2000);
  net.restart(node);  // on_start arms a fresh timer at ~2000
  sim.run_until_idle();
  // Only the new incarnation's timer fired (at ~7000), never the stale one.
  ASSERT_EQ(actor.fired.size(), 1u);
  EXPECT_GE(actor.fired[0], 7000);
}

// ---------------------------------------------------------------------------
// CPU lanes / offload (docs/performance.md)

struct OffloadActor : IActor {
  int64_t cost = 10'000;
  int copies = 1;
  std::vector<SimTime> completed;
  void on_message(NodeId, const Message&, ActorContext& ctx) override {
    for (int i = 0; i < copies; ++i) {
      ctx.offload(cost, [this](ActorContext& c) { completed.push_back(c.now()); });
    }
  }
};

TEST(Network, OffloadRunsInlineOnSingleLaneNode) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  OffloadActor actor;
  net.add_node(&starter);
  NodeId node = net.add_node(&actor);
  starter.target = node;
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(actor.completed.size(), 1u);
  EXPECT_EQ(net.cores(node), 1u);
  EXPECT_EQ(net.offloads_run(node), 1u);
  // Inline execution charges the serial lane; there is no worker lane.
  ASSERT_EQ(net.lane_used_us(node).size(), 1u);
  EXPECT_GE(net.lane_used_us(node)[0], actor.cost);
  EXPECT_GE(net.cpu_used_us(node), actor.cost);
}

TEST(Network, OffloadsOverlapAcrossWorkerLanes) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  OffloadActor actor;
  actor.copies = 2;
  net.add_node(&starter);
  NodeId node = net.add_node(&actor);
  starter.target = node;
  net.set_cores(node, 3);  // lane 0 + two workers
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(actor.completed.size(), 2u);
  // Both tasks ran in parallel on distinct worker lanes: completions land
  // within one handler overhead of each other, not one task-cost apart.
  EXPECT_LT(actor.completed[1] - actor.completed[0], actor.cost);
  const std::vector<int64_t>& lanes = net.lane_used_us(node);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[1], actor.cost);
  EXPECT_EQ(lanes[2], actor.cost);
  EXPECT_EQ(net.offloads_run(node), 2u);
}

TEST(Network, OffloadQueuesOnEarliestFreeLane) {
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Starter starter;
  OffloadActor actor;
  actor.copies = 3;  // two lanes -> the third task queues behind the first
  net.add_node(&starter);
  NodeId node = net.add_node(&actor);
  starter.target = node;
  net.set_cores(node, 3);
  net.start();
  sim.run_until_idle();
  ASSERT_EQ(actor.completed.size(), 3u);
  EXPECT_LT(actor.completed[1] - actor.completed[0], actor.cost);
  EXPECT_GE(actor.completed[2], actor.completed[0] + actor.cost);
  const std::vector<int64_t>& lanes = net.lane_used_us(node);
  EXPECT_EQ(lanes[1] + lanes[2], 3 * actor.cost);
}

TEST(Network, OffloadCompletionsDieWithTheCrashedIncarnation) {
  struct Nobody : IActor {
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Nobody actor;
  NodeId node = net.add_node(&actor);
  net.set_cores(node, 2);
  net.start();
  bool completed = false;
  net.offload(node, 10'000, [&](ActorContext&) { completed = true; });
  sim.run_until(2000);
  net.crash(node);
  net.restart(node);
  sim.run_until_idle();
  // The offload was dispatched, but its completion belonged to the old
  // incarnation — exactly like a stale timer, it must never fire.
  EXPECT_EQ(net.offloads_run(node), 1u);
  EXPECT_FALSE(completed);
}

TEST(Network, CrashDropsAQueuedMoveOnlyHandler) {
  struct Nobody : IActor {
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Nobody a, b;
  NodeId crashed = net.add_node(&a);
  NodeId live = net.add_node(&b);
  int runs = 0;
  int destroyed = 0;
  for (NodeId node : {crashed, live}) {
    // Single lane: the first offload runs at once and holds the lane for
    // 10ms, so the second waits in the node's handler queue.
    net.offload(node, 10'000, [](ActorContext&) {});
    net.offload(node, 0, [&runs, probe = Probe(&destroyed)](ActorContext&) { ++runs; });
    EXPECT_EQ(net.cpu_queue_depth(node), 1u);
  }
  net.crash(crashed);
  sim.run_until_idle();
  EXPECT_EQ(runs, 1);  // only the live node's
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(net.cpu_queue_depth(crashed), 0u);
}

TEST(Network, RestartedNodeDrainsItsQueueWithoutTheDeadIncarnation) {
  struct Nobody : IActor {
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Nobody actor;
  NodeId node = net.add_node(&actor);
  // Single lane: the first offload holds it for 50ms, so the second waits in
  // the queue for a drain at 50ms.
  net.offload(node, 50'000, [](ActorContext&) {});
  net.offload(node, 0, [](ActorContext&) {});
  sim.run_until(2000);
  net.crash(node);
  net.restart(node);
  // The new incarnation's lane is idle: this one runs at once and holds it
  // for 1ms, and the next waits in the queue for the lane to free.
  net.offload(node, 1000, [](ActorContext&) {});
  SimTime started = -1;
  net.offload(node, 0, [&](ActorContext& ctx) { started = ctx.now(); });
  sim.run_until_idle();
  EXPECT_EQ(started, 3000);  // not at the dead incarnation's drain, at 50ms
}

TEST(Network, LaneUsageBooksAHandlersWholeChargeWhenItStarts) {
  struct Busy : IActor {
    void on_start(ActorContext& ctx) override { ctx.charge(10'000); }
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Busy actor;
  NodeId node = net.add_node(&actor);
  net.start();
  sim.run_until(5000);
  // Half the handler has run, but its whole charge is booked: a usage read
  // mid-handler counts the rest too. This is why the benchmark's
  // cpu.primary_lane0_util can exceed 1 (docs/performance.md).
  EXPECT_EQ(net.lane_used_us(node)[0], 10'000);
}

// ---------------------------------------------------------------------------
// Shared messages (ActorContext::share)

// Sends one client request with the given timestamp to `target` at start.
struct RequestSender : IActor {
  NodeId target = 0;
  uint64_t timestamp = 7;
  void on_start(ActorContext& ctx) override {
    ClientRequestMsg m;
    m.request.timestamp = timestamp;
    ctx.send(target, make_message(std::move(m)));
  }
  void on_message(NodeId, const Message&, ActorContext&) override {}
};

TEST(Network, ShareAliasesTheDeliveredMessage) {
  struct Sharer : IActor {
    const Message* delivered = nullptr;
    std::shared_ptr<const Message> whole;
    std::shared_ptr<const ClientRequestMsg> alternative;
    void on_message(NodeId, const Message& msg, ActorContext& ctx) override {
      delivered = &msg;
      whole = ctx.share(msg);
      alternative = ctx.share(std::get<ClientRequestMsg>(msg));
    }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  RequestSender sender;
  Sharer actor;
  net.add_node(&sender);
  sender.target = net.add_node(&actor);
  net.start();
  sim.run_until_idle();
  ASSERT_NE(actor.delivered, nullptr);
  EXPECT_EQ(actor.whole.get(), actor.delivered);
  EXPECT_EQ(actor.alternative.get(), &std::get<ClientRequestMsg>(*actor.delivered));
  // No copy: the two pointers own the network's message, and nothing else
  // does once it has been delivered.
  EXPECT_EQ(actor.whole.use_count(), 2);
  EXPECT_EQ(actor.alternative->request.timestamp, 7u);
}

TEST(Network, ShareCopiesAPartTheMessageDoesNotHold) {
  struct Sharer : IActor {
    Request local;
    std::shared_ptr<const Request> from_start;
    std::shared_ptr<const Request> from_message;
    void on_start(ActorContext& ctx) override { from_start = ctx.share(local); }
    void on_message(NodeId, const Message&, ActorContext& ctx) override {
      from_message = ctx.share(local);
    }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  RequestSender sender;
  Sharer actor;
  actor.local.timestamp = 9;
  net.add_node(&sender);
  sender.target = net.add_node(&actor);
  net.start();
  sim.run_until_idle();
  // Outside the delivered message (or with none delivered): a copy each.
  for (const auto& copy : {actor.from_start, actor.from_message}) {
    ASSERT_NE(copy, nullptr);
    EXPECT_NE(copy.get(), &actor.local);
    EXPECT_EQ(copy.use_count(), 2);  // this loop's and the actor's
    EXPECT_EQ(copy->timestamp, 9u);
  }
}

TEST(Network, QueuedContinuationOutlivesEveryOtherHolderOfItsMessage) {
  struct Verifier : IActor {
    std::weak_ptr<const ClientRequestMsg> shared;
    uint64_t read = 0;
    void on_message(NodeId, const Message& msg, ActorContext& ctx) override {
      auto m = ctx.share(std::get<ClientRequestMsg>(msg));
      shared = m;
      // The work ends 1ms after this handler, while the timer's handler
      // holds lane 0 for 10ms, so the continuation waits in the queue.
      ctx.offload(1000, [this, m](ActorContext&) { read = m->request.timestamp; });
      ctx.set_timer(500, 0);
    }
    void on_timer(uint64_t, ActorContext& ctx) override { ctx.charge(10'000); }
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  RequestSender sender;
  Verifier actor;
  net.add_node(&sender);
  NodeId node = net.add_node(&actor);
  sender.target = node;
  net.set_cores(node, 2);
  net.start();
  sim.run_until(5000);
  EXPECT_EQ(net.cpu_queue_depth(node), 1u);
  EXPECT_EQ(actor.shared.use_count(), 1);  // the queued continuation's only
  EXPECT_EQ(actor.read, 0u);
  sim.run_until_idle();
  EXPECT_EQ(actor.read, 7u);
  EXPECT_TRUE(actor.shared.expired());
}

TEST(Network, StragglerCpuFactorScalesWorkerLanes) {
  struct Nobody : IActor {
    void on_message(NodeId, const Message&, ActorContext&) override {}
  };
  Simulator sim;
  Network net(sim, lan_topology(), CostModel{});
  Nobody actor;
  NodeId node = net.add_node(&actor);
  net.set_cores(node, 2);
  net.set_cpu_factor(node, 10.0);
  net.start();
  SimTime done_at = 0;
  net.offload(node, 1000, [&](ActorContext& c) { done_at = c.now(); });
  sim.run_until_idle();
  EXPECT_GE(done_at, 10'000);  // 1ms of work, 10x straggler
  EXPECT_EQ(net.lane_used_us(node)[1], 10'000);
}

TEST(Topologies, Shapes) {
  EXPECT_EQ(lan_topology().num_regions(), 1u);
  EXPECT_EQ(continent_topology().num_regions(), 10u);  // 5 regions x 2 AZ
  EXPECT_EQ(world_topology().num_regions(), 15u);
  // Symmetric and zero-ish diagonal.
  auto world = world_topology();
  for (uint32_t a = 0; a < world.num_regions(); ++a) {
    for (uint32_t b = 0; b < world.num_regions(); ++b) {
      EXPECT_EQ(world.region_latency_us[a][b], world.region_latency_us[b][a]);
    }
  }
}

}  // namespace
}  // namespace sbft::sim
