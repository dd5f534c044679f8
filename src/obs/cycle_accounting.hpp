// Cycle-accounting profiler: a per-processor ledger attributing every
// simulated cycle to exactly one cost category.
//
// The paper explains *why* WI/PU/CU differ by decomposing construct latency
// into its causes (miss stalls, update/ack stalls at releases, spin-wait
// time). The ledger reproduces that decomposition mechanically: each
// processor's timeline is partitioned into charged spans. Attribution is a
// per-processor stack of scopes -- sync constructs push construct-wait
// scopes (lock/barrier/reduction), the CPU's memory awaitables push spans
// for each shared-memory operation, and the INNERMOST scope wins. Cycles
// outside any scope are compute. Because every charge advances the
// processor's accounted-until watermark and finalize() charges the tail,
// the conservation invariant
//
//     sum over categories == wall cycles          (per processor, exact)
//
// holds by construction and is asserted by tests/test_cycle_accounting.
//
// Memory-operation spans resolve their category at completion time:
//   - loads: <= hit latency -> inherit the enclosing scope (a cached poll
//     inside a lock spin is lock-wait, not a miss); longer -> the miss
//     class the classifier reported for the block (cold / true / false /
//     eviction / drop), or miss_other for unclassified read stalls
//     (in-flight-transaction merges, write-buffer overlap waits);
//   - stores: beyond the 1-cycle buffer accept -> wb_full (under SC this
//     also covers the chained global-perform wait);
//   - fences: release-ack stall (drain + invalidation/update acks);
//   - flushes: release_ack (they wait for the block's writes to perform);
//   - atomics: beyond the local read-modify-write cost -> net_queue (the
//     remote round-trip: network latency plus home-side queueing).
//
// Everything here is passive bookkeeping driven by existing events -- no
// events are scheduled, so enabling the profiler cannot perturb timing,
// and a null ledger pointer makes every hook a no-op.
#pragma once

#include "obs/observer.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"
#include "stats/counters.hpp"
#include "stats/histogram.hpp"

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ccsim::obs {

enum class CycleCat : std::uint8_t {
  Compute,        ///< instruction execution, cache hits, local think time
  MissCold,       ///< read stall, classifier said cold-start miss
  MissTrue,       ///< read stall, true-sharing miss
  MissFalse,      ///< read stall, false-sharing miss
  MissEvict,      ///< read stall, eviction miss
  MissDrop,       ///< read stall, competitive-update drop miss
  MissOther,      ///< read stall without a classified miss (merges, races)
  WbFull,         ///< store stalled on a full write buffer
  ReleaseAck,     ///< fence/flush waiting for drains and coherence acks
  LockWait,       ///< inside a lock acquire/release, not otherwise attributed
  BarrierWait,    ///< inside a barrier episode, not otherwise attributed
  ReductionWait,  ///< inside a reduction combine, not otherwise attributed
  NetQueue,       ///< remote atomic round-trips (network + home queueing)
  Count_
};
inline constexpr std::size_t kCycleCats = static_cast<std::size_t>(CycleCat::Count_);

[[nodiscard]] std::string_view to_string(CycleCat c) noexcept;

/// Construct phases with a latency histogram each (construct x phase).
enum class SyncPhase : std::uint8_t {
  LockAcquire,      ///< lock->acquire() entry to grant
  LockHold,         ///< grant to the matching release() entry
  LockRelease,      ///< release() entry to completion
  BarrierArrive,    ///< signalling our arrival (fan-in contribution)
  BarrierDepart,    ///< waiting for / propagating the wakeup
  ReductionCombine, ///< folding the local value into the global result
  Count_
};
inline constexpr std::size_t kSyncPhases = static_cast<std::size_t>(SyncPhase::Count_);

[[nodiscard]] std::string_view to_string(SyncPhase p) noexcept;

/// Immutable copy of one run's accounting, taken after Machine::run.
struct ProfileSnapshot {
  Cycle wall = 0;  ///< 0 means profiling was off
  /// per_proc[p][cat]: cycles processor p spent in that category.
  std::vector<std::array<Cycle, kCycleCats>> per_proc;
  /// One latency distribution per (construct, phase) pair.
  std::array<stats::LatencyHistogram, kSyncPhases> phases;
  /// Write-buffer pressure, aggregated over all nodes.
  std::uint64_t wb_peak = 0;    ///< deepest observed occupancy of any buffer
  std::uint64_t wb_pushes = 0;  ///< stores accepted into any buffer

  [[nodiscard]] bool enabled() const noexcept { return !per_proc.empty(); }
  /// Category totals summed over processors.
  [[nodiscard]] std::array<Cycle, kCycleCats> totals() const noexcept;
  /// True if every processor's categories sum exactly to `wall`.
  [[nodiscard]] bool conserved() const noexcept;
};

class CycleLedger : public Observer {
public:
  CycleLedger(unsigned nprocs, const sim::EventQueue& q);

  [[nodiscard]] Cycle now() const noexcept { return q_.now(); }

  // --- scope stack (categories) ---------------------------------------

  /// Charge the elapsed gap to the enclosing scope and push `c`.
  void begin(NodeId p, CycleCat c);
  /// Charge the span since the last charge to the scope's own category.
  void end(NodeId p);
  /// Spans at or below `fast_cycles` long inherit the enclosing category
  /// (the op completed at its uncontended cost); longer spans charge their
  /// own category (the excess is the stall being measured).
  void end_fast(NodeId p, Cycle fast_cycles);

  // --- memory-operation spans (resolve on completion) ------------------

  /// A load span for `a` starts now (also used by spin polls).
  void begin_load(NodeId p, Addr a);
  /// The load span completes; `hit_cycles` is the cost below which the
  /// span counts as a hit and inherits the enclosing category.
  void end_load(NodeId p, Cycle hit_cycles);
  /// Observer hook: the classifier classified a miss by `p` at `a`
  /// (called mid-span).
  void on_miss(NodeId p, Addr a, stats::MissClass c) override;

  // --- construct phases -------------------------------------------------

  void phase_record(NodeId p, SyncPhase ph, Cycle dur);
  /// A release began: close the implicit hold phase opened by the last
  /// acquire (no-op if no hold is open, e.g. hand-written release-only use).
  void note_release_begin(NodeId p);

  // --- lifecycle --------------------------------------------------------

  /// Charge every processor's tail (to its current scope, normally
  /// compute) up to `end`. Call exactly once, after the run completes.
  void finalize(Cycle end);

  [[nodiscard]] ProfileSnapshot snapshot() const;

private:
  struct Scope {
    CycleCat cat;
    Cycle start;
    bool is_load = false;
    Addr load_addr = 0;
    bool miss_noted = false;
    CycleCat miss_cat = CycleCat::MissOther;
  };
  struct Proc {
    Cycle accounted = 0;  ///< timeline charged up to here
    std::vector<Scope> stack;
    std::array<Cycle, kCycleCats> by{};
    Cycle hold_since = 0;
    bool holding = false;
  };

  void charge(Proc& pr, CycleCat c, Cycle until);
  /// As end(), but charge to the ENCLOSING scope (fast ops that should not
  /// steal cycles from the construct they serve).
  void end_inherit(NodeId p);
  [[nodiscard]] CycleCat enclosing(const Proc& pr) const noexcept {
    return pr.stack.empty() ? CycleCat::Compute : pr.stack.back().cat;
  }

  const sim::EventQueue& q_;
  std::vector<Proc> procs_;
  std::array<stats::LatencyHistogram, kSyncPhases> phases_;
  bool finalized_ = false;
};

/// RAII scope for construct implementations: attributes its cycles to the
/// phase's construct-wait category and records its wall duration into the
/// (construct, phase) histogram. Null ledger = no-op.
class ScopedPhase {
public:
  ScopedPhase(CycleLedger* l, NodeId p, SyncPhase ph) : l_(l), p_(p), ph_(ph) {
    if (!l_) return;
    l_->begin(p_, wait_cat(ph_));
    start_ = l_->now();
    if (ph_ == SyncPhase::LockRelease) l_->note_release_begin(p_);
  }
  ~ScopedPhase() {
    if (!l_) return;
    l_->end(p_);
    l_->phase_record(p_, ph_, l_->now() - start_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
  /// The construct-wait category of a phase's otherwise unattributed cycles.
  static constexpr CycleCat wait_cat(SyncPhase ph) noexcept {
    switch (ph) {
      case SyncPhase::LockAcquire:
      case SyncPhase::LockHold:
      case SyncPhase::LockRelease: return CycleCat::LockWait;
      case SyncPhase::BarrierArrive:
      case SyncPhase::BarrierDepart: return CycleCat::BarrierWait;
      case SyncPhase::ReductionCombine:
      case SyncPhase::Count_: break;
    }
    return CycleCat::ReductionWait;
  }

  CycleLedger* l_;
  NodeId p_;
  SyncPhase ph_;
  Cycle start_ = 0;
};

} // namespace ccsim::obs
