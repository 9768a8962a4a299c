#include "runtime/checkpoint_manager.h"

namespace sbft::runtime {

void CheckpointManager::capture_pending(SeqNum s, Bytes snapshot_envelope) {
  pending_seq_ = s;
  pending_ = std::move(snapshot_envelope);
}

void CheckpointManager::adopt(const ExecCertificate& cert, Bytes snapshot_envelope) {
  ls_ = cert.seq;
  stable_cert_ = cert;
  snapshot_cert_ = cert;
  snapshot_ = std::move(snapshot_envelope);
  pending_seq_ = 0;
  pending_ = {};
}

}  // namespace sbft::runtime
