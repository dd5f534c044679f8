#include "stats/update_classifier.hpp"

namespace ccsim::stats {

UpdateClassifier::PerProc& UpdateClassifier::state(NodeId proc, mem::BlockAddr b) {
  BlockInfo& bi = blocks_[b];
  if (bi.procs.empty()) bi.procs.resize(nprocs_);
  return bi.procs[proc];
}

void UpdateClassifier::count(mem::BlockAddr b, UpdateClass cls) {
  ++counters_.updates[cls];
  for (obs::Observer* o : observers_) o->on_update_classified(b, cls);
}

void UpdateClassifier::finalize_word(PerProc& pp, mem::BlockAddr b, unsigned w,
                                     UpdateClass cls) {
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << w);
  if (!(pp.pending & bit)) return;
  // "Classify useless updates as proliferation unless active false sharing
  // is detected" -- refother upgrades the class to false sharing for the
  // overwrite and end-of-program cases.
  if ((pp.refother & bit) &&
      (cls == UpdateClass::Proliferation || cls == UpdateClass::Termination))
    cls = UpdateClass::FalseSharing;
  count(b, cls);
  pp.pending = static_cast<std::uint8_t>(pp.pending & ~bit);
  pp.refother = static_cast<std::uint8_t>(pp.refother & ~bit);
}

void UpdateClassifier::on_update_applied(NodeId proc, Addr addr) {
  const mem::BlockAddr b = mem::block_of(addr);
  PerProc& pp = state(proc, b);
  const unsigned w = mem::word_of(addr);
  // Overwriting a still-pending update ends its lifetime uselessly.
  finalize_word(pp, b, w, UpdateClass::Proliferation);
  pp.pending = static_cast<std::uint8_t>(pp.pending | (1u << w));
  pp.refother = static_cast<std::uint8_t>(pp.refother & ~(1u << w));
}

void UpdateClassifier::on_drop_update(NodeId proc, Addr addr) {
  const mem::BlockAddr b = mem::block_of(addr);
  PerProc& pp = state(proc, b);
  const unsigned w = mem::word_of(addr);
  // The arriving update itself is the drop update...
  count(b, UpdateClass::Drop);
  // ...and the block's other pending updates die unconsumed.
  finalize_word(pp, b, w, UpdateClass::Proliferation);  // pending older update on w
  for (unsigned i = 0; i < mem::kWordsPerBlock; ++i)
    finalize_word(pp, b, i, UpdateClass::Proliferation);
}

void UpdateClassifier::on_reference(NodeId proc, Addr addr) {
  if (!mem::is_shared(addr)) return;
  const mem::BlockAddr b = mem::block_of(addr);
  BlockInfo* bi = blocks_.find(b);
  if (!bi || bi->procs.empty()) return;
  PerProc& pp = bi->procs[proc];
  if (pp.pending == 0) return;
  const unsigned w = mem::word_of(addr);
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << w);
  if (pp.pending & bit) {
    // Referenced the updated word: useful, finalize eagerly.
    count(b, UpdateClass::TrueSharing);
    pp.pending = static_cast<std::uint8_t>(pp.pending & ~bit);
    pp.refother = static_cast<std::uint8_t>(pp.refother & ~bit);
  }
  // Every other pending update in the block now has other-word activity.
  pp.refother = static_cast<std::uint8_t>(pp.refother | (pp.pending & ~bit));
}

void UpdateClassifier::on_block_replaced(NodeId proc, mem::BlockAddr b) {
  BlockInfo* bi = blocks_.find(b);
  if (!bi || bi->procs.empty()) return;
  PerProc& pp = bi->procs[proc];
  for (unsigned w = 0; w < mem::kWordsPerBlock; ++w)
    finalize_word(pp, b, w, UpdateClass::Replacement);
}

void UpdateClassifier::finalize(Cycle) {
  // Block-address order; the counts and the observers' per-block sums do
  // not depend on it.
  blocks_.for_each([this](mem::BlockAddr b, BlockInfo& bi) {
    for (auto& pp : bi.procs) {
      for (unsigned w = 0; w < mem::kWordsPerBlock; ++w)
        finalize_word(pp, b, w, UpdateClass::Termination);
    }
  });
}

} // namespace ccsim::stats
