#include "sync/magic_sync.hpp"

#include "obs/cycle_accounting.hpp"

namespace ccsim::sync {

sim::Task MagicLock::acquire(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockAcquire);
  co_await AcquireAwaiter{*this};
  // The acquire-path instructions run once the lock is granted (exiting
  // the spin, re-establishing the critical section) and are therefore part
  // of every critical section's serialized length -- the heart of section
  // 2.3's argument.
  co_await c.think(kAcquireCycles);
}

sim::Task MagicLock::release(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockRelease);
  // The lock variable itself generates no traffic, but release semantics
  // still apply: critical-section writes must be globally performed before
  // the next holder can run.
  co_await c.think(kReleaseCycles);
  co_await c.fence();
  if (waiters_.empty()) {
    held_ = false;
  } else {
    auto h = waiters_.front();
    waiters_.pop_front();
    q_.schedule(1, [h] { h.resume(); });
  }
  co_await sim::delay(c.queue(), 1);
}

sim::Task MagicBarrier::wait(cpu::Cpu& c) {
  // Same release semantics as a real barrier: everything written before
  // arrival is visible to every processor after departure.
  {
    obs::ScopedPhase arrive(c.ledger(), c.id(), obs::SyncPhase::BarrierArrive);
    co_await c.think(kArriveCycles);
    co_await c.fence();
  }
  obs::ScopedPhase depart(c.ledger(), c.id(), obs::SyncPhase::BarrierDepart);
  co_await WaitAwaiter{*this};
}

} // namespace ccsim::sync
