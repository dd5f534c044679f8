#include "sync/ticket_lock.hpp"

#include "obs/cycle_accounting.hpp"

namespace ccsim::sync {

TicketLock::TicketLock(harness::Machine& m, NodeId home, bool split) {
  if (split) {
    next_ = m.alloc().allocate_on(home, mem::kWordSize, "ticket.next");
    serving_ = m.alloc().allocate_on(home, mem::kWordSize, "ticket.serving");
  } else {
    next_ = m.alloc().allocate_on(home, 2 * mem::kWordSize, "ticket");
    serving_ = next_ + mem::kWordSize;
  }
}

sim::Task TicketLock::acquire(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockAcquire);
  const std::uint64_t my = co_await c.fetch_add(next_ticket_addr(), 1);
  co_await c.spin_until(now_serving_addr(),
                        [my](std::uint64_t v) { return v == my; });
}

sim::Task TicketLock::release(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockRelease);
  const std::uint64_t now = co_await c.load(now_serving_addr());
  // Release semantics: critical-section writes must be globally performed
  // before the next holder can observe now_serving advance.
  co_await c.fence();
  co_await c.store(now_serving_addr(), now + 1);
}

} // namespace ccsim::sync
