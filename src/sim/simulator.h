// Deterministic discrete-event simulator. All protocol time in the
// repository is *simulated* microseconds; replicas run real protocol code and
// real (simulated-BLS) cryptography, while CPU and network costs advance the
// virtual clock through the cost model (docs/architecture.md, paper
// substitution 2).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "sim/inline_function.h"

namespace sbft::sim {

using SimTime = int64_t;  // microseconds since simulation start

/// A scheduled event. 56 bytes hold the network's largest hot closure, an
/// offload completion that carries its 32-byte lane-0 Handler
/// (sim/network.cpp), and make each slab slot one 64-byte cache line.
using Event = InlineFunction<void(), 56>;
static_assert(sizeof(Event) == 64);

/// Events run in (time, seq) order, seq being the order of the schedule
/// calls, so same-time events run first-scheduled first. Events due within
/// the wheel's window sit in one-microsecond buckets; later ones wait in an
/// overflow heap and move into their bucket once the window reaches them
/// (docs/architecture.md, "The simulator").
class Simulator {
 public:
  // The wheel covers [base_, base_ + 2^19 us), about 524 ms, one bucket per
  // microsecond. Counted over the benchmark's four workloads (seed 7), 98.7%
  // to 99.97% of schedule() calls are due within 2^19 us; within 2^16 us,
  // only 77-89% of the SBFT workloads' calls are, and 7% of the events of
  // sbft_bench's sim.event_ns timing, which spreads them over a second
  // (docs/performance.md, "Host cost of the simulation").
  static constexpr SimTime kWheelSpan = SimTime{1} << 19;

  Simulator()
      : tails_(kWheelSpan), words_(kWheelSpan / 64), summary_(kWheelSpan / 64 / 64) {}

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return processed_; }

  void schedule(SimTime at, Event fn) {
    SBFT_CHECK(at >= now_);
    uint32_t slot = take_slot();
    event_at(slot) = std::move(fn);
    if (at - base_ < kWheelSpan) {
      append(bucket_of(at), slot);
    } else {
      push(Entry{at, next_seq_++, slot});
    }
  }

  void after(SimTime delay, Event fn) { schedule(now_ + delay, std::move(fn)); }

  /// Executes the next event; returns false if the queue is empty.
  bool step() { return run_next(INT64_MAX); }

  /// Runs events until the clock passes `t` (events at exactly `t` run).
  /// The clock then reads at least `t`; the window stays where the last
  /// event put it.
  void run_until(SimTime t) {
    while (run_next(t)) {
    }
    if (now_ < t) now_ = t;
  }

  /// Runs until no events remain or `max_events` were processed.
  void run_until_idle(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

  bool idle() const { return wheel_events_ == 0 && heap_.empty(); }

 private:
  static constexpr uint32_t kBucketMask = static_cast<uint32_t>(kWheelSpan - 1);
  static constexpr uint32_t kNone = UINT32_MAX;
  // Slab chunks never move, so an event runs in its slot while it schedules
  // others into new chunks.
  static constexpr int kChunkBits = 10;
  static constexpr uint32_t kChunkSlots = uint32_t{1} << kChunkBits;

  static uint32_t bucket_of(SimTime at) { return static_cast<uint32_t>(at) & kBucketMask; }
  static uint64_t bit(uint32_t i) { return uint64_t{1} << (i % 64); }

  Event& event_at(uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }

  uint32_t take_slot() {
    if (!free_slots_.empty()) {
      uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (slots_ == next_.size()) {
      chunks_.push_back(std::make_unique<Event[]>(kChunkSlots));
      next_.resize(next_.size() + kChunkSlots);
    }
    return slots_++;
  }

  // Runs the earliest event if it is due at or before `limit`: in its slot,
  // which is freed after it returns.
  bool run_next(SimTime limit) {
    if (wheel_events_ == 0) {
      if (heap_.empty() || heap_.front().at > limit) return false;
      advance(heap_.front().at);
    }
    uint32_t b = next_bucket();
    SimTime at = base_ + ((b - bucket_of(base_)) & kBucketMask);
    if (at > limit) return false;
    if (at != base_) advance(at);
    uint32_t slot = pop_front(b);
    // The first read of an event's slot is the loop's main cache miss, so
    // fetch the next one's while this one runs.
    if (wheel_events_ != 0) __builtin_prefetch(&event_at(next_[tails_[next_bucket()]]));
    now_ = at;
    ++processed_;
    Event& fn = event_at(slot);
    fn();
    fn.reset();
    free_slots_.push_back(slot);
    return true;
  }

  // Moves the window to start at `at`. Every overflow event it now covers
  // enters its bucket, in (time, seq) order, before any event at `at` runs,
  // so it stays ahead of the later-scheduled events of its time.
  void advance(SimTime at) {
    base_ = at;
    while (!heap_.empty() && heap_.front().at - base_ < kWheelSpan) {
      Entry e = pop();
      append(bucket_of(e.at), e.slot);
    }
  }

  // A bucket is a circular list through next_: its tail links to its head.
  // Its bit says whether it holds any, so a new bucket's tail is only
  // written, never read.
  void append(uint32_t b, uint32_t slot) {
    uint64_t& word = words_[b / 64];
    if ((word & bit(b)) != 0) {
      uint32_t tail = tails_[b];
      next_[slot] = next_[tail];
      next_[tail] = slot;
    } else {
      next_[slot] = slot;
      if (word == 0) summary_[b / 4096] |= bit(b / 64);
      word |= bit(b);
    }
    tails_[b] = slot;
    ++wheel_events_;
  }

  uint32_t pop_front(uint32_t b) {
    uint32_t tail = tails_[b];
    uint32_t head = next_[tail];
    if (head == tail) {
      if ((words_[b / 64] &= ~bit(b)) == 0) summary_[b / 4096] &= ~bit(b / 64);
    } else {
      next_[tail] = next_[head];
    }
    --wheel_events_;
    return head;
  }

  // The bucket of the earliest wheel event: the first occupied one from
  // base_'s on, wrapping. The wheel must not be empty.
  uint32_t next_bucket() const {
    uint32_t b = first_occupied(bucket_of(base_));
    return b != kNone ? b : first_occupied(0);
  }

  // The first occupied bucket at or after `from`, or kNone.
  uint32_t first_occupied(uint32_t from) const {
    uint32_t w = from / 64;
    uint64_t bits = words_[w] & (~uint64_t{0} << (from % 64));
    if (bits != 0) return w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
    for (uint32_t next = w + 1; next < words_.size(); next = (next / 64 + 1) * 64) {
      uint64_t nonempty = summary_[next / 64] & (~uint64_t{0} << (next % 64));
      if (nonempty != 0) {
        uint32_t word = next / 64 * 64 + static_cast<uint32_t>(std::countr_zero(nonempty));
        return word * 64 + static_cast<uint32_t>(std::countr_zero(words_[word]));
      }
    }
    return kNone;
  }

  // Overflow heap entry: the event's order key and its slot in the slab.
  // Keys are unique, so overflow events leave in exactly (at, seq) order.
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

  // The wheel: per bucket its list's tail slot, and a two-level occupancy
  // bitmap, one bit per bucket and one per bitmap word.
  std::vector<uint32_t> tails_;
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;
  uint64_t wheel_events_ = 0;
  SimTime base_ = 0;  // the window's start: the time of the last event run
  std::vector<Entry> heap_;  // overflow: events at or past base_ + kWheelSpan
  // The slab: callables in fixed-size chunks, with each slot's successor in
  // its bucket's list beside them in next_.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<uint32_t> next_;
  uint32_t slots_ = 0;                // slots handed out so far
  std::vector<uint32_t> free_slots_;  // empty slab slots, reused LIFO
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace sbft::sim
