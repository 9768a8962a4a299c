// Deterministic discrete-event simulator. All protocol time in the
// repository is *simulated* microseconds; replicas run real protocol code and
// real (simulated-BLS) cryptography, while CPU and network costs advance the
// virtual clock through the cost model (docs/architecture.md, paper
// substitution 2).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/check.h"

namespace sbft::sim {

using SimTime = int64_t;  // microseconds since simulation start

class Simulator {
 public:
  SimTime now() const { return now_; }
  uint64_t events_processed() const { return processed_; }

  void schedule(SimTime at, std::function<void()> fn) {
    SBFT_CHECK(at >= now_);
    queue_.push(Event{at, next_seq_++, std::move(fn)});
  }

  void after(SimTime delay, std::function<void()> fn) {
    schedule(now_ + delay, std::move(fn));
  }

  /// Executes the next event; returns false if the queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    ++processed_;
    ev.fn();
    return true;
  }

  /// Runs events until the clock passes `t` (events at exactly `t` run).
  void run_until(SimTime t) {
    while (!queue_.empty() && queue_.top().at <= t) step();
    if (now_ < t) now_ = t;
  }

  /// Runs until no events remain or `max_events` were processed.
  void run_until_idle(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

  bool idle() const { return queue_.empty(); }

 private:
  struct Event {
    SimTime at;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    std::function<void()> fn;

    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace sbft::sim
