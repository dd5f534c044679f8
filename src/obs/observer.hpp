// One interface for every transition observer (DESIGN.md section 8,
// "Observers").
//
// The protocol engines, the two traffic classifiers and Machine::poke
// report each transition once, to every attached observer, by looping over
// the span Machine fills before it builds any node. Every hook is a virtual
// no-op here, so an observer overrides only the hooks it consumes and a new
// observer needs no engine edits. Observers schedule no events and send no
// messages, so simulated results are identical whichever are attached; an
// observer may throw (the invariant checker reports violations that way).
#pragma once

#include "mem/address.hpp"
#include "sim/types.hpp"
#include "stats/counters.hpp"

#include <cstdint>
#include <span>

namespace ccsim::obs {

/// How an update delivery landed at a cache (Observer::on_update_delivered).
enum class Delivery : std::uint8_t {
  Applied,  ///< written into a valid copy
  Stale,    ///< no copy present (pruned/evicted while in flight)
  Dropped,  ///< tripped the competitive-update counter (self-invalidate)
};

/// Hook arguments named `word` carry the full 8-byte word containing the
/// address, as it reads after the transition.
class Observer {
public:
  virtual ~Observer() = default;

  /// A load completed at `reader` (cache hits and atomics included).
  virtual void on_read(NodeId /*reader*/, Addr, std::uint64_t /*word*/) {}
  /// A write reached its global-order point: a WI store into a Modified
  /// line, an update home's write-through, a PU store into a PrivateDirty
  /// line, an atomic's write.
  virtual void on_global_write(NodeId /*writer*/, Addr, std::uint64_t /*word*/) {}
  /// A PU/CU write-through landed in the writer's own copy; the home
  /// reports its on_global_write later.
  virtual void on_local_write(NodeId /*writer*/, Addr, std::uint64_t /*word*/) {}
  /// `node`'s cache now holds a writable copy (Modified or PrivateDirty).
  virtual void on_writable(NodeId /*node*/, mem::BlockAddr) {}
  /// Machine::poke initialized simulated memory before the run.
  virtual void on_poke(Addr, std::uint64_t /*word*/) {}
  /// The WI home sent `dst` an invalidation for `writer`'s write to
  /// `trigger`.
  virtual void on_inval_sent(NodeId /*dst*/, Addr /*trigger*/, NodeId /*writer*/) {}
  /// `writer`'s update reached the PU/CU cache at `dst`; `word` is the
  /// copy's word after an Applied delivery and 0 otherwise.
  virtual void on_update_delivered(NodeId /*dst*/, Addr, NodeId /*writer*/,
                                   Delivery, std::uint64_t /*word*/) {}
  /// A home accepted a coherence request (GetS, GetX, Upgrade, UpdateReq,
  /// AtomicReq) for the block.
  virtual void on_home_txn(mem::BlockAddr) {}
  /// The miss classifier classified `proc`'s miss at the address.
  virtual void on_miss(NodeId /*proc*/, Addr, stats::MissClass) {}
  /// `proc`'s copy of the block was invalidated by a write to `trigger`.
  virtual void on_invalidated(NodeId /*proc*/, mem::BlockAddr, Addr /*trigger*/) {}
  /// The update classifier ended one update lifetime in the block.
  virtual void on_update_classified(mem::BlockAddr, stats::UpdateClass) {}
};

/// The attached observers, in subscription order (empty = none).
using Observers = std::span<Observer* const>;

} // namespace ccsim::obs
