// Structured protocol tracing (ISSUE 6, pillar 1).
//
// A Tracer is a per-replica, sim-time-stamped event stream held in a bounded
// ring buffer. Ordering engines and the shared runtime emit *instant* events
// (a point in time: "commit.fast", "st.chunk.invalid") and *span* events
// (begin/end pairs: a slot's lifetime from pre-prepare to execution, a
// view-change session, a state-transfer session). Consumers are the Chrome
// trace exporter (trace_export.h) and the TraceChecker (trace_checker.h).
//
// Tracing is off by default and zero-cost when disabled: a disabled tracer
// has capacity 0 and every emit call is a single predictable branch. Emitting
// never touches the simulator, the network, timers, or any RNG, so enabling
// tracing cannot perturb a run (tests/determinism_test.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sbft::obs {

enum class EventPhase : uint8_t {
  kInstant,  // point event
  kBegin,    // opens a span (matched by kEnd with the same category+span id)
  kEnd,
};

enum class Category : uint8_t {
  kSlot,           // per-sequence-number ordering lifecycle
  kViewChange,     // view-change sessions
  kStateTransfer,  // state-transfer sessions (probe/manifest/chunk/adopt)
  kCheckpoint,     // checkpoint capture/stabilization/adoption
  kReconfig,       // membership epoch activation
};
inline constexpr size_t kNumCategories = 5;

const char* category_name(Category c);

/// First 8 bytes of a 32-byte digest as a big-endian integer — the compact
/// fingerprint "execute" events carry so the TraceChecker can compare
/// executed digests across replicas without hauling full hashes around.
inline uint64_t digest_prefix(const uint8_t* digest) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | digest[i];
  return v;
}

// Event-name vocabulary. Names are inline constexpr pointers so emit sites
// pay no string cost; the checker and tests compare by content
// (std::string_view), never by pointer identity. docs/observability.md is
// the authoritative taxonomy — keep it in sync.
namespace ev {
// Slot lifecycle (Category::kSlot).
inline constexpr const char* kSlot = "slot";  // span: accept pre-prepare -> executed
inline constexpr const char* kRequestAdmitted = "request.admitted";
inline constexpr const char* kReplyCached = "reply.cached";
inline constexpr const char* kFastProofFormed = "fastproof.formed";  // arg = shares
inline constexpr const char* kPrepareFormed = "prepare.formed";      // arg = shares
inline constexpr const char* kSlowProofFormed = "slowproof.formed";  // arg = shares
inline constexpr const char* kCommitFast = "commit.fast";    // arg = digest prefix
inline constexpr const char* kCommitSlow = "commit.slow";    // arg = digest prefix
inline constexpr const char* kExecute = "execute";           // arg = exec digest prefix
inline constexpr const char* kExecAcks = "exec.acks";        // arg = requests
// Lifecycle markers the harness emits (Category::kSlot, seq 0). A restart
// resets the checker's per-replica execution cursor: a wiped replica
// legitimately re-executes sequences its previous incarnation already ran
// (digest agreement still applies across incarnations).
inline constexpr const char* kReplicaCrashed = "replica.crashed";
inline constexpr const char* kReplicaRestarted = "replica.restarted";
// View change (Category::kViewChange).
inline constexpr const char* kViewChange = "viewchange";  // span: start -> enter
inline constexpr const char* kNewViewSent = "newview.sent";
inline constexpr const char* kViewEntered = "view.entered";  // enter w/o local start
inline constexpr const char* kViewAdopted = "view.adopted";  // SBFT dual-mode adopt
// State transfer (Category::kStateTransfer).
inline constexpr const char* kStateTransfer = "statetransfer";  // span: session
inline constexpr const char* kStProbe = "st.probe";
inline constexpr const char* kStManifest = "st.manifest";        // arg = donor
inline constexpr const char* kStChunkStored = "st.chunk.stored";  // arg = chunk index
inline constexpr const char* kStChunkInvalid = "st.chunk.invalid";  // arg = donor
inline constexpr const char* kStResume = "st.resume";
inline constexpr const char* kStCertRejected = "st.cert.rejected";
inline constexpr const char* kStAdopt = "st.adopt";  // arg = digest prefix
inline constexpr const char* kStAdoptFailed = "st.adopt.failed";
// Checkpoints (Category::kCheckpoint).
inline constexpr const char* kCheckpointCaptured = "checkpoint.captured";
inline constexpr const char* kCheckpointStable = "checkpoint.stable";
inline constexpr const char* kCheckpointAdopted = "checkpoint.adopted";
// Reconfiguration (Category::kReconfig).
inline constexpr const char* kEpochActivated = "epoch.activated";  // arg = epoch
inline constexpr const char* kEpochJoined = "epoch.joined";        // arg = epoch
inline constexpr const char* kEpochRetired = "epoch.retired";      // arg = epoch
}  // namespace ev

struct TraceEvent {
  int64_t ts_us = 0;           // sim::SimTime of the emitting handler
  const char* name = nullptr;  // one of obs::ev::*
  Category category = Category::kSlot;
  EventPhase phase = EventPhase::kInstant;
  uint64_t span = 0;  // span id, unique within (replica, category)
  uint64_t seq = 0;   // protocol sequence number, 0 when n/a
  uint64_t view = 0;  // protocol view, 0 when n/a
  const char* arg_name = nullptr;  // optional extra argument
  uint64_t arg = 0;
};

class Tracer {
 public:
  /// Disabled tracer: capacity 0, every emit is a no-op.
  Tracer() = default;
  /// Enabled tracer for `replica`, keeping the most recent `capacity` events.
  Tracer(uint32_t replica, size_t capacity) : replica_(replica) {
    ring_.reserve(capacity);
    capacity_ = capacity;
  }

  bool enabled() const { return capacity_ != 0; }
  uint32_t replica() const { return replica_; }
  /// Events evicted from the ring (buffer was full). The checker relaxes
  /// span-matching invariants when a stream is known to be truncated.
  uint64_t dropped() const { return dropped_; }
  size_t size() const { return ring_.size(); }

  void instant(int64_t ts_us, Category cat, const char* name, uint64_t span = 0,
               uint64_t seq = 0, uint64_t view = 0,
               const char* arg_name = nullptr, uint64_t arg = 0) {
    emit(ts_us, cat, EventPhase::kInstant, name, span, seq, view, arg_name, arg);
  }
  void begin(int64_t ts_us, Category cat, const char* name, uint64_t span,
             uint64_t seq = 0, uint64_t view = 0,
             const char* arg_name = nullptr, uint64_t arg = 0) {
    emit(ts_us, cat, EventPhase::kBegin, name, span, seq, view, arg_name, arg);
  }
  void end(int64_t ts_us, Category cat, const char* name, uint64_t span,
           uint64_t seq = 0, uint64_t view = 0,
           const char* arg_name = nullptr, uint64_t arg = 0) {
    emit(ts_us, cat, EventPhase::kEnd, name, span, seq, view, arg_name, arg);
  }

  /// Events in emission order (oldest retained first).
  std::vector<TraceEvent> events() const;

  /// Shared always-disabled instance: engines bind a Tracer& to this when no
  /// tracer was supplied, so emit sites never null-check.
  static Tracer& nop();

 private:
  void emit(int64_t ts_us, Category cat, EventPhase phase, const char* name,
            uint64_t span, uint64_t seq, uint64_t view, const char* arg_name,
            uint64_t arg) {
    if (capacity_ == 0) return;  // disabled: the whole cost of tracing-off
    TraceEvent e{ts_us, name, cat, phase, span, seq, view, arg_name, arg};
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  uint32_t replica_ = 0;
  size_t capacity_ = 0;
  size_t head_ = 0;  // oldest element once the ring has wrapped
  uint64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace sbft::obs
