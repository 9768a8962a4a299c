#include "runtime/evidence_store.h"

#include <utility>

namespace sbft::runtime {

bool EvidenceStore::record_prepared(SeqNum s, ViewNum view,
                                    const Digest& digest, Bytes sig,
                                    std::optional<SealedBlock> block) {
  SlotEvidenceRecord& rec = slots_[s];
  if (rec.has_prepared && rec.prepared_view > view) return false;
  rec.has_prepared = true;
  rec.prepared_view = view;
  rec.prepared_digest = digest;
  rec.prepared_sig = std::move(sig);
  if (block.has_value()) rec.prepared_block = std::move(block);
  return true;
}

bool EvidenceStore::record_fast_proof(SeqNum s, ViewNum view,
                                      const Digest& digest, Bytes sig) {
  SlotEvidenceRecord& rec = slots_[s];
  if (rec.has_fast_proof) return false;
  rec.has_fast_proof = true;
  rec.fast_view = view;
  rec.fast_digest = digest;
  rec.fast_sig = std::move(sig);
  return true;
}

bool EvidenceStore::record_slow_proof(SeqNum s, ViewNum view,
                                      const Digest& digest, Bytes inner_sig,
                                      Bytes sig) {
  SlotEvidenceRecord& rec = slots_[s];
  if (rec.has_slow_proof) return false;
  rec.has_slow_proof = true;
  rec.slow_view = view;
  rec.slow_digest = digest;
  rec.slow_inner_sig = std::move(inner_sig);
  rec.slow_sig = std::move(sig);
  return true;
}

const SlotEvidenceRecord* EvidenceStore::find(SeqNum s) const {
  auto it = slots_.find(s);
  return it == slots_.end() ? nullptr : &it->second;
}

void EvidenceStore::for_each_in(
    SeqNum lo, SeqNum hi,
    const std::function<void(SeqNum, const SlotEvidenceRecord&)>& fn) const {
  for (auto it = slots_.upper_bound(lo); it != slots_.end() && it->first <= hi;
       ++it) {
    fn(it->first, it->second);
  }
}

void EvidenceStore::gc_through(SeqNum stable) {
  slots_.erase(slots_.begin(), slots_.upper_bound(stable));
}

}  // namespace sbft::runtime
