#include "sync/reductions.hpp"

#include "obs/cycle_accounting.hpp"

#include <string>

namespace ccsim::sync {

ParallelReduction::ParallelReduction(harness::Machine& m, Lock& lock, Barrier& barrier,
                                     NodeId home)
    : max_(m.alloc().allocate_on(home, mem::kWordSize, "reduction.max")),
      lock_(lock),
      barrier_(barrier) {}

sim::Task ParallelReduction::reduce(cpu::Cpu& c, std::uint64_t value,
                                    std::uint64_t* result) {
  // LOCK; if (max < local_max) max := local_max; UNLOCK  (figure 6)
  {
    // Innermost-scope-wins: the lock's own acquire/release spans charge
    // lock_wait; only the folding in between lands in reduction_wait.
    obs::ScopedPhase combine(c.ledger(), c.id(), obs::SyncPhase::ReductionCombine);
    co_await lock_.acquire(c);
    const std::uint64_t m = co_await c.load(max_);
    if (m < value) co_await c.store(max_, value);
    co_await lock_.release(c);
  }

  co_await barrier_.wait(c);
  const std::uint64_t global = co_await c.load(max_);  // code that uses max
  if (result) *result = global;
  co_await barrier_.wait(c);
}

SequentialReduction::SequentialReduction(harness::Machine& m, Barrier& barrier,
                                         NodeId home)
    : max_(m.alloc().allocate_on(home, mem::kWordSize, "reduction.max")),
      parties_(m.nprocs()),
      barrier_(barrier) {
  locals_.reserve(parties_);
  for (NodeId i = 0; i < parties_; ++i)
    locals_.push_back(m.alloc().allocate_on(
        i, mem::kWordSize, "reduction.local" + std::to_string(i)));
}

sim::Task SequentialReduction::reduce(cpu::Cpu& c, std::uint64_t value,
                                      std::uint64_t* result) {
  // Publish the local value, then processor 0 folds the array (figure 7).
  {
    obs::ScopedPhase combine(c.ledger(), c.id(), obs::SyncPhase::ReductionCombine);
    co_await c.store(local_max_addr(c.id()), value);
  }
  co_await barrier_.wait(c);
  if (c.id() == 0) {
    obs::ScopedPhase combine(c.ledger(), c.id(), obs::SyncPhase::ReductionCombine);
    for (NodeId i = 0; i < parties_; ++i) {
      const std::uint64_t l = co_await c.load(local_max_addr(i));
      const std::uint64_t m = co_await c.load(max_);
      if (m < l) co_await c.store(max_, l);
    }
  }
  co_await barrier_.wait(c);
  const std::uint64_t global = co_await c.load(max_);  // code that uses max
  if (result) *result = global;
}

} // namespace ccsim::sync
