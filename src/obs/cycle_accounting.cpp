#include "obs/cycle_accounting.hpp"

#include "mem/address.hpp"

#include <cassert>

namespace ccsim::obs {

std::string_view to_string(CycleCat c) noexcept {
  switch (c) {
    case CycleCat::Compute: return "compute";
    case CycleCat::MissCold: return "miss_cold";
    case CycleCat::MissTrue: return "miss_true";
    case CycleCat::MissFalse: return "miss_false";
    case CycleCat::MissEvict: return "miss_evict";
    case CycleCat::MissDrop: return "miss_drop";
    case CycleCat::MissOther: return "miss_other";
    case CycleCat::WbFull: return "wb_full";
    case CycleCat::ReleaseAck: return "release_ack";
    case CycleCat::LockWait: return "lock_wait";
    case CycleCat::BarrierWait: return "barrier_wait";
    case CycleCat::ReductionWait: return "reduction_wait";
    case CycleCat::NetQueue: return "net_queue";
    case CycleCat::Count_: break;
  }
  return "?";
}

std::string_view to_string(SyncPhase p) noexcept {
  switch (p) {
    case SyncPhase::LockAcquire: return "lock_acquire";
    case SyncPhase::LockHold: return "lock_hold";
    case SyncPhase::LockRelease: return "lock_release";
    case SyncPhase::BarrierArrive: return "barrier_arrive";
    case SyncPhase::BarrierDepart: return "barrier_depart";
    case SyncPhase::ReductionCombine: return "reduction_combine";
    case SyncPhase::Count_: break;
  }
  return "?";
}

namespace {
CycleCat miss_cat(stats::MissClass c) noexcept {
  switch (c) {
    case stats::MissClass::Cold: return CycleCat::MissCold;
    case stats::MissClass::TrueSharing: return CycleCat::MissTrue;
    case stats::MissClass::FalseSharing: return CycleCat::MissFalse;
    case stats::MissClass::Eviction: return CycleCat::MissEvict;
    case stats::MissClass::Drop: return CycleCat::MissDrop;
    case stats::MissClass::Count_: break;
  }
  return CycleCat::MissOther;
}
} // namespace

std::array<Cycle, kCycleCats> ProfileSnapshot::totals() const noexcept {
  std::array<Cycle, kCycleCats> t{};
  for (const auto& proc : per_proc)
    for (std::size_t i = 0; i < kCycleCats; ++i) t[i] += proc[i];
  return t;
}

bool ProfileSnapshot::conserved() const noexcept {
  for (const auto& proc : per_proc) {
    Cycle sum = 0;
    for (Cycle c : proc) sum += c;
    if (sum != wall) return false;
  }
  return true;
}

CycleLedger::CycleLedger(unsigned nprocs, const sim::EventQueue& q)
    : q_(q), procs_(nprocs) {}

void CycleLedger::charge(Proc& pr, CycleCat c, Cycle until) {
  assert(until >= pr.accounted && "simulated time went backwards");
  pr.by[static_cast<std::size_t>(c)] += until - pr.accounted;
  pr.accounted = until;
}

void CycleLedger::begin(NodeId p, CycleCat c) {
  Proc& pr = procs_.at(p);
  charge(pr, enclosing(pr), now());
  pr.stack.push_back({c, now(), false, 0, false, CycleCat::MissOther});
}

void CycleLedger::end(NodeId p) {
  Proc& pr = procs_.at(p);
  assert(!pr.stack.empty());
  charge(pr, pr.stack.back().cat, now());
  pr.stack.pop_back();
}

void CycleLedger::end_inherit(NodeId p) {
  Proc& pr = procs_.at(p);
  assert(!pr.stack.empty());
  pr.stack.pop_back();
  charge(pr, enclosing(pr), now());
}

void CycleLedger::end_fast(NodeId p, Cycle fast_cycles) {
  Proc& pr = procs_.at(p);
  assert(!pr.stack.empty());
  if (now() - pr.stack.back().start <= fast_cycles)
    end_inherit(p);
  else
    end(p);
}

void CycleLedger::begin_load(NodeId p, Addr a) {
  Proc& pr = procs_.at(p);
  charge(pr, enclosing(pr), now());
  pr.stack.push_back({CycleCat::MissOther, now(), true, a, false,
                      CycleCat::MissOther});
}

void CycleLedger::end_load(NodeId p, Cycle hit_cycles) {
  Proc& pr = procs_.at(p);
  assert(!pr.stack.empty() && pr.stack.back().is_load);
  const Scope s = pr.stack.back();
  pr.stack.pop_back();
  const Cycle elapsed = now() - s.start;
  if (s.miss_noted)
    charge(pr, s.miss_cat, now());
  else if (elapsed <= hit_cycles)
    charge(pr, enclosing(pr), now());  // a hit: part of whatever it serves
  else
    charge(pr, CycleCat::MissOther, now());
}

void CycleLedger::on_miss(NodeId p, Addr a, stats::MissClass c) {
  Proc& pr = procs_.at(p);
  // Attach only to an active load span for the same block: drain-triggered
  // store misses classify concurrently with unrelated CPU activity.
  if (pr.stack.empty()) return;
  Scope& s = pr.stack.back();
  if (!s.is_load || mem::block_of(s.load_addr) != mem::block_of(a)) return;
  s.miss_noted = true;
  s.miss_cat = miss_cat(c);
}

void CycleLedger::phase_record(NodeId p, SyncPhase ph, Cycle dur) {
  phases_[static_cast<std::size_t>(ph)].add(dur);
  if (ph == SyncPhase::LockAcquire) {
    Proc& pr = procs_.at(p);
    pr.hold_since = now();
    pr.holding = true;
  }
}

void CycleLedger::note_release_begin(NodeId p) {
  Proc& pr = procs_.at(p);
  if (!pr.holding) return;
  pr.holding = false;
  phases_[static_cast<std::size_t>(SyncPhase::LockHold)].add(now() -
                                                            pr.hold_since);
}

void CycleLedger::finalize(Cycle end) {
  assert(!finalized_);
  finalized_ = true;
  for (Proc& pr : procs_) {
    // Scopes are RAII inside coroutine frames and unwind before the run
    // returns; anything left (aborted runs) is charged to its own category.
    while (!pr.stack.empty()) {
      charge(pr, pr.stack.back().cat, end);
      pr.stack.pop_back();
    }
    charge(pr, CycleCat::Compute, end);
  }
}

ProfileSnapshot CycleLedger::snapshot() const {
  ProfileSnapshot s;
  s.wall = finalized_ && !procs_.empty() ? procs_.front().accounted : 0;
  s.per_proc.reserve(procs_.size());
  for (const Proc& pr : procs_) s.per_proc.push_back(pr.by);
  s.phases = phases_;
  return s;
}

} // namespace ccsim::obs
