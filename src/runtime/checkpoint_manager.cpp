#include "runtime/checkpoint_manager.h"

namespace sbft::runtime {

const Bytes& CheckpointManager::snapshot() const {
  static const Bytes kNone;
  return snapshot_ ? *snapshot_ : kNone;
}

void CheckpointManager::capture_pending(SeqNum s,
                                        std::shared_ptr<const Bytes> snapshot_envelope) {
  pending_seq_ = s;
  pending_ = std::move(snapshot_envelope);
}

void CheckpointManager::adopt(const ExecCertificate& cert,
                              std::shared_ptr<const Bytes> snapshot_envelope) {
  ls_ = cert.seq;
  stable_cert_ = cert;
  snapshot_cert_ = cert;
  snapshot_ = std::move(snapshot_envelope);
  pending_seq_ = 0;
  pending_ = {};
}

}  // namespace sbft::runtime
