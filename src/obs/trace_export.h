// Chrome-trace-event JSON exporter (ISSUE 6, pillar 3a).
//
// Serializes a set of per-replica Tracer streams into the Chrome Trace Event
// Format (the JSON flavor Perfetto and chrome://tracing load). Layout:
//   * pid  = replica id (one "process" per replica, named via metadata),
//   * tid  = event category (one named track per category),
//   * spans are async events ("b"/"e") with ids unique per (replica,
//     category, span), so overlapping slots render as parallel bars,
//   * instants are thread-scoped "i" events carrying the id of their span
//     (span 0 when they belong to none).
// Output is byte-deterministic for a deterministic event stream: iteration
// order is the caller's tracer order, and no wall-clock or locale state is
// consulted (tests/determinism_test.cpp pins this).
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"

namespace sbft::obs {

/// Renders the streams as one Chrome trace JSON document.
std::string chrome_trace_json(const std::vector<const Tracer*>& tracers);

/// Writes chrome_trace_json() to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

}  // namespace sbft::obs
