// Deterministic discrete-event simulator. All protocol time in the
// repository is *simulated* microseconds; replicas run real protocol code and
// real (simulated-BLS) cryptography, while CPU and network costs advance the
// virtual clock through the cost model (docs/architecture.md, paper
// substitution 2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "sim/inline_function.h"

namespace sbft::sim {

using SimTime = int64_t;  // microseconds since simulation start

/// A scheduled event. 112 bytes hold the network's largest hot closure, an
/// offload completion that carries its lane-0 Handler (sim/network.cpp).
using Event = InlineFunction<void(), 112>;

class Simulator {
 public:
  SimTime now() const { return now_; }
  uint64_t events_processed() const { return processed_; }

  void schedule(SimTime at, Event fn) {
    SBFT_CHECK(at >= now_);
    uint32_t slot = static_cast<uint32_t>(slab_.size());
    if (free_slots_.empty()) {
      slab_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(fn);
    }
    push(Entry{at, next_seq_++, slot});
  }

  void after(SimTime delay, Event fn) { schedule(now_ + delay, std::move(fn)); }

  /// Executes the next event; returns false if the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    Entry next = pop();
    // Out of its slot before it runs: the event may schedule others, which
    // reuse the slot or grow the slab.
    Event fn = std::move(slab_[next.slot]);
    free_slots_.push_back(next.slot);
    now_ = next.at;
    ++processed_;
    fn();
    return true;
  }

  /// Runs events until the clock passes `t` (events at exactly `t` run).
  void run_until(SimTime t) {
    while (!heap_.empty() && heap_.front().at <= t) step();
    if (now_ < t) now_ = t;
  }

  /// Runs until no events remain or `max_events` were processed.
  void run_until_idle(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

  bool idle() const { return heap_.empty(); }

 private:
  // Heap entry: the event's order key and its slot in the slab. Keys are
  // unique, so events run in exactly (at, seq) order.
  struct Entry {
    SimTime at;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    uint32_t slot;
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  // 4-ary min-heap: shallower than a binary heap, and a node's children
  // share cache lines.
  void push(Entry e) {
    size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Entry pop() {
    Entry top = heap_.front();
    Entry last = heap_.back();
    heap_.pop_back();
    size_t n = heap_.size();
    if (n == 0) return top;
    size_t i = 0;
    for (;;) {
      size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      for (size_t c = first + 1; c < std::min(first + 4, n); ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
    return top;
  }

  std::vector<Entry> heap_;
  std::vector<Event> slab_;            // callables, indexed by Entry::slot
  std::vector<uint32_t> free_slots_;  // empty slab slots, reused LIFO
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace sbft::sim
