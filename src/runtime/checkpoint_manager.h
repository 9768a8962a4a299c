// Checkpoint state tracking, shared by every ordering protocol through the
// ReplicaRuntime.
//
// Two invariants drive the design (both were seed bugs at one point, see
// ROADMAP "known seed bugs"):
//   * The shippable (certificate, snapshot) pair must be *consistent*: the
//     snapshot is captured when the checkpoint sequence executes — by the
//     time its certificate forms, the service may have executed further, and
//     a live snapshot then would not match the certificate's state root.
//   * The stable certificate and the shippable pair are tracked separately:
//     a checkpoint can become stable without a usable snapshot (e.g. the
//     sequence executed in a previous incarnation); in that case the previous
//     consistent pair keeps serving state transfer.
#pragma once

#include "proto/message.h"

namespace sbft::runtime {

class CheckpointManager {
 public:
  explicit CheckpointManager(uint64_t interval) : interval_(interval) {}

  uint64_t interval() const { return interval_; }
  SeqNum last_stable() const { return ls_; }
  /// Latest stable checkpoint certificate (valid when last_stable() > 0).
  const ExecCertificate& stable_cert() const { return stable_cert_; }

  /// Shippable state-transfer pair: snapshot_cert().state_root matches the
  /// service part of snapshot() exactly.
  const ExecCertificate& snapshot_cert() const { return snapshot_cert_; }
  const Bytes& snapshot() const { return snapshot_; }
  bool has_shippable() const { return snapshot_cert_.seq > 0 && !snapshot_.empty(); }

  /// Records the snapshot captured when checkpoint sequence `s` executed
  /// (encode_checkpoint_snapshot envelope bytes).
  void capture_pending(SeqNum s, Bytes snapshot_envelope);

  /// `cert` became the stable checkpoint. Promotes the pending snapshot when
  /// it matches; falls back to `live_capture()` only when the service has not
  /// executed past cert.seq (`last_executed == cert.seq`). Returns true when
  /// a new consistent pair was recorded (the caller persists it to the WAL).
  template <typename LiveCapture>
  bool make_stable(const ExecCertificate& cert, SeqNum last_executed,
                   LiveCapture&& live_capture) {
    if (cert.seq <= ls_) return false;
    ls_ = cert.seq;
    stable_cert_ = cert;
    if (pending_seq_ == cert.seq) {
      snapshot_ = std::move(pending_);
      pending_ = {};
      pending_seq_ = 0;
      snapshot_cert_ = cert;
      return true;
    }
    if (last_executed == cert.seq) {
      snapshot_ = live_capture();
      snapshot_cert_ = cert;
      return true;
    }
    return false;  // keep the previous consistent pair
  }

  /// Adopts a verified checkpoint received via state transfer or installed
  /// from the WAL at recovery.
  void adopt(const ExecCertificate& cert, Bytes snapshot_envelope);

 private:
  uint64_t interval_;
  SeqNum ls_ = 0;  // last stable (checkpointed) sequence
  ExecCertificate stable_cert_;
  ExecCertificate snapshot_cert_;
  Bytes snapshot_;  // envelope bytes matching snapshot_cert_
  SeqNum pending_seq_ = 0;
  Bytes pending_;  // envelope captured when pending_seq_ executed
};

}  // namespace sbft::runtime
