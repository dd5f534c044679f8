#include "sync/mcs_lock.hpp"

#include "obs/cycle_accounting.hpp"

#include <string>

namespace ccsim::sync {

McsLock::McsLock(harness::Machine& m, bool update_conscious, NodeId home, bool padded)
    : tail_(m.alloc().allocate_on(home, mem::kWordSize, "mcs.tail")),
      update_conscious_(update_conscious) {
  qnodes_.reserve(m.nprocs());
  if (padded) {
    // Layout ablation: one block per qnode, homed at its owner.
    for (NodeId i = 0; i < m.nprocs(); ++i)
      qnodes_.push_back(m.alloc().allocate_on(
          i, 2 * mem::kWordSize, "mcs.qnode" + std::to_string(i)));
  } else {
    // The paper's layout: a packed shared array, four qnodes per block,
    // interleaved across the machine's memories.
    const Addr base =
        m.alloc().allocate(m.nprocs() * 2 * mem::kWordSize, mem::kBlockSize,
                           "mcs.qnodes");
    for (NodeId i = 0; i < m.nprocs(); ++i)
      qnodes_.push_back(base + i * 2 * mem::kWordSize);
  }
}

sim::Task McsLock::acquire(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockAcquire);
  const Addr I = qnodes_.at(c.id());
  co_await c.store(I + kNextOff, 0);
  const Addr pred = co_await c.fetch_store(tail_, I);
  if (pred != 0) {
    // Queue was non-empty: link behind the predecessor and spin on our own
    // flag. The write buffer drains FIFO, so locked=1 is performed before
    // pred->next becomes visible.
    co_await c.store(I + kLockedOff, 1);
    co_await c.store(pred + kNextOff, I);
    if (update_conscious_) co_await c.flush(pred);  // Flush *pred (figure 2)
    co_await c.spin_until(I + kLockedOff, [](std::uint64_t v) { return v == 0; });
  }
}

sim::Task McsLock::release(cpu::Cpu& c) {
  obs::ScopedPhase phase(c.ledger(), c.id(), obs::SyncPhase::LockRelease);
  const Addr I = qnodes_.at(c.id());
  Addr next = co_await c.load(I + kNextOff);
  if (next == 0) {
    // No known successor: try to swing the tail back to nil.
    co_await c.fence();  // release semantics before the lock is freed
    const std::uint64_t old = co_await c.compare_swap(tail_, I, 0);
    if (old == I) co_return;
    // Someone is linking in; wait for the pointer to appear.
    next = co_await c.spin_until(I + kNextOff,
                                 [](std::uint64_t v) { return v != 0; });
  }
  co_await c.fence();
  co_await c.store(next + kLockedOff, 0);
  if (update_conscious_) co_await c.flush(next);  // Flush *(I->next) (figure 2)
}

} // namespace ccsim::sync
