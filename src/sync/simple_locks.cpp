#include "sync/simple_locks.hpp"

#include "obs/cycle_accounting.hpp"

#include <algorithm>

namespace ccsim::sync {

TasLock::TasLock(harness::Machine& m, NodeId home, BackoffParams b)
    : lock_(m.alloc().allocate_on(home, mem::kWordSize, "tas.lock")), backoff_(b) {}

sim::Task TasLock::acquire(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockAcquire);
  Cycle delay = backoff_.initial;
  for (;;) {
    const std::uint64_t old = co_await c.fetch_store(lock_, 1);
    if (old == 0) co_return;
    co_await c.think(delay);
    delay = std::min<Cycle>(delay * 2, backoff_.max);
  }
}

sim::Task TasLock::release(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockRelease);
  co_await c.fence();  // release semantics
  co_await c.store(lock_, 0);
}

TtasLock::TtasLock(harness::Machine& m, NodeId home, BackoffParams b)
    : lock_(m.alloc().allocate_on(home, mem::kWordSize, "ttas.lock")), backoff_(b) {}

sim::Task TtasLock::acquire(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockAcquire);
  Cycle delay = backoff_.initial;
  for (;;) {
    // Test: spin in the cache until the lock looks free (no global traffic
    // per iteration -- the re-check happens only when the line changes).
    co_await c.spin_until(lock_, [](std::uint64_t v) { return v == 0; });
    // Test-and-set: one global attempt.
    const std::uint64_t old = co_await c.fetch_store(lock_, 1);
    if (old == 0) co_return;
    co_await c.think(delay);
    delay = std::min<Cycle>(delay * 2, backoff_.max);
  }
}

sim::Task TtasLock::release(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockRelease);
  co_await c.fence();
  co_await c.store(lock_, 0);
}

} // namespace ccsim::sync
