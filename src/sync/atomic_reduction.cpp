#include "sync/atomic_reduction.hpp"

#include "obs/cycle_accounting.hpp"

namespace ccsim::sync {

AtomicSumReduction::AtomicSumReduction(harness::Machine& m, Barrier& barrier,
                                       NodeId home)
    : sum_(m.alloc().allocate_on(home, mem::kWordSize, "atomic_reduction.sum")),
      barrier_(barrier) {}

sim::Task AtomicSumReduction::reduce(cpu::Cpu& c, std::uint64_t value,
                                     std::uint64_t* result) {
  {
    obs::ScopedPhase combine(c.ledger(), c.id(), obs::SyncPhase::ReductionCombine);
    (void)co_await c.fetch_add(sum_, value);
  }
  co_await barrier_.wait(c);
  const std::uint64_t global = co_await c.load(sum_);
  if (result) *result = global;
  co_await barrier_.wait(c);
}

CasMaxReduction::CasMaxReduction(harness::Machine& m, Barrier& barrier, NodeId home)
    : max_(m.alloc().allocate_on(home, mem::kWordSize, "atomic_reduction.max")),
      barrier_(barrier) {}

sim::Task CasMaxReduction::reduce(cpu::Cpu& c, std::uint64_t value,
                                  std::uint64_t* result) {
  // Lock-free maximum: retry while our candidate still beats the global.
  {
    obs::ScopedPhase combine(c.ledger(), c.id(), obs::SyncPhase::ReductionCombine);
    for (;;) {
      const std::uint64_t cur = co_await c.load(max_);
      if (cur >= value) break;
      const std::uint64_t old = co_await c.compare_swap(max_, cur, value);
      if (old == cur) break;  // our CAS installed the new maximum
      // Lost a race: someone raised the value; re-check against it.
    }
  }
  co_await barrier_.wait(c);
  const std::uint64_t global = co_await c.load(max_);
  if (result) *result = global;
  co_await barrier_.wait(c);
}

} // namespace ccsim::sync
