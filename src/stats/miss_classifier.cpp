#include "stats/miss_classifier.hpp"

namespace ccsim::stats {

MissClassifier::BlockInfo& MissClassifier::info(mem::BlockAddr b) {
  BlockInfo& bi = blocks_[b];
  if (bi.procs.empty()) bi.procs.resize(nprocs_);
  return bi;
}

void MissClassifier::on_store(NodeId proc, Addr addr) {
  (void)proc;
  if (!mem::is_shared(addr)) return;
  BlockInfo& bi = info(mem::block_of(addr));
  ++bi.version[mem::word_of(addr)];
}

void MissClassifier::on_invalidated(NodeId proc, mem::BlockAddr b, Addr trigger) {
  BlockInfo& bi = info(b);
  PerProc& pp = bi.procs[proc];
  pp.loss = Loss::Inval;
  pp.snapshot = bi.version;
  pp.trigger_mask = static_cast<std::uint8_t>(1u << mem::word_of(trigger));
  for (obs::Observer* o : observers_) o->on_invalidated(proc, b, trigger);
}

void MissClassifier::on_evicted(NodeId proc, mem::BlockAddr b) {
  PerProc& pp = info(b).procs[proc];
  pp.loss = Loss::Evict;
  pp.trigger_mask = 0;
}

void MissClassifier::on_dropped(NodeId proc, mem::BlockAddr b) {
  PerProc& pp = info(b).procs[proc];
  pp.loss = Loss::Drop;
  pp.trigger_mask = 0;
}

void MissClassifier::on_fill(NodeId proc, mem::BlockAddr b) {
  PerProc& pp = info(b).procs[proc];
  pp.ever_cached = true;
  pp.loss = Loss::None;
  pp.trigger_mask = 0;
}

MissClass MissClassifier::classify_miss(NodeId proc, Addr addr) {
  BlockInfo& bi = info(mem::block_of(addr));
  PerProc& pp = bi.procs[proc];

  MissClass c;
  if (!pp.ever_cached) {
    c = MissClass::Cold;
  } else {
    switch (pp.loss) {
      case Loss::Evict:
        c = MissClass::Eviction;
        break;
      case Loss::Drop:
        c = MissClass::Drop;
        break;
      case Loss::Inval: {
        const unsigned w = mem::word_of(addr);
        const bool written_since =
            (pp.trigger_mask >> w) & 1u || bi.version[w] != pp.snapshot[w];
        c = written_since ? MissClass::TrueSharing : MissClass::FalseSharing;
        break;
      }
      case Loss::None:
      default:
        // A miss without a recorded loss can only be cold (defensive).
        c = MissClass::Cold;
        break;
    }
  }
  ++counters_.misses[c];
  for (obs::Observer* o : observers_) o->on_miss(proc, addr, c);
  return c;
}

void MissClassifier::on_exclusive_request(NodeId) {
  ++counters_.misses.exclusive_requests;
}

} // namespace ccsim::stats
