// Protocol configuration: cluster sizing (n = 3f + 2c + 1), feature toggles
// corresponding to the paper's four ingredients, and timing parameters.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "proto/types.h"

namespace sbft {

struct ProtocolConfig {
  // --- cluster sizing -------------------------------------------------------
  uint32_t f = 1;  // tolerated Byzantine replicas
  uint32_t c = 0;  // tolerated crashed/slow replicas on the fast path

  uint32_t n() const { return 3 * f + 2 * c + 1; }
  uint32_t fast_quorum() const { return 3 * f + c + 1; }       // sigma threshold
  uint32_t slow_quorum() const { return 2 * f + c + 1; }       // tau threshold
  uint32_t exec_quorum() const { return f + 1; }               // pi threshold
  uint32_t view_change_quorum() const { return 2 * f + 2 * c + 1; }

  // --- ingredient toggles (map to the evaluated protocol variants) ----------
  bool fast_path_enabled = true;        // ingredient 2
  bool execution_collector = true;      // ingredient 3 (single client message)
  uint32_t num_collectors() const { return c + 1; }  // ingredient 4

  // --- windows / batching (§V-F, §VIII) -------------------------------------
  uint64_t win = 256;            // outstanding-block window
  uint64_t checkpoint_interval() const { return win / 2; }

  uint32_t max_batch = 64;       // upper bound on requests per decision block
  bool adaptive_batching = true; // §VIII adaptive batch parameter

  // --- state transfer (§VIII; normative spec in docs/state_transfer.md) -----
  // Checkpoint snapshots ship as fixed-size chunks addressed by a Merkle tree
  // over chunk hashes, fetched in parallel from every replica holding the
  // stable checkpoint. Must be positive.
  uint32_t state_transfer_chunk_size = 64 * 1024;

  // --- timers (microseconds of simulated time) ------------------------------
  int64_t view_change_timeout_us = 2'000'000;  // base; doubles per attempt (§VII)
  int64_t client_retry_timeout_us = 4'000'000;
  // Chunked state transfer retry tick: outstanding chunk requests older than
  // this are re-planned onto other donors (resume, never restart).
  int64_t state_transfer_retry_us = 400'000;

  void validate() const {
    SBFT_CHECK(f >= 1);
    SBFT_CHECK(win >= 8);
    SBFT_CHECK(max_batch >= 1);
    SBFT_CHECK(state_transfer_chunk_size > 0);
  }

  /// Primary of a view: round-robin over replica ids 1..n (§V-B).
  ReplicaId primary_of(ViewNum v) const { return static_cast<ReplicaId>(v % n()) + 1; }
};

}  // namespace sbft
