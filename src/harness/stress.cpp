#include "harness/stress.hpp"

#include "sim/rng.hpp"
#include "sync/barriers.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/reductions.hpp"
#include "sync/sync.hpp"
#include "sync/ticket_lock.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccsim::harness {
namespace {

/// Critical-section hold time of the stress cell's lock operations.
constexpr Cycle kHoldCycles = 20;
/// Bound of the think pause between random operations.
constexpr Cycle kMaxThink = 40;

[[noreturn]] void value_mismatch(const char* what, Addr a, std::uint64_t got,
                                 std::uint64_t want) {
  throw std::logic_error("stress end-to-end check failed: " + std::string(what) +
                         " at addr " + std::to_string(a) + ": got " +
                         std::to_string(got) + ", want " + std::to_string(want));
}

} // namespace

RunResult run_stress_cell(const MachineConfig& cfg, const StressParams& params) {
  Machine m(cfg);
  const unsigned P = cfg.nprocs;
  const std::size_t total_words =
      static_cast<std::size_t>(params.data_blocks) * mem::kWordsPerBlock;

  // Host-side plan: every construct choice comes from the master stream,
  // drawn before the run, so the schedule is a pure function of the seed.
  sim::Rng master(sim::Rng::derive(params.seed, 0));

  const Addr arena = m.alloc().allocate(
      static_cast<std::size_t>(params.data_blocks) * mem::kBlockSize,
      mem::kBlockSize, "stress.data");
  // Word 0: lock-protected counter; words 1..7: home-serialized atomics.
  const Addr counters =
      m.alloc().allocate(mem::kBlockSize, mem::kBlockSize, "stress.counters");
  constexpr std::size_t kAtomicWords = mem::kWordsPerBlock - 1;

  std::unique_ptr<sync::Lock> lock;
  if (master.below(2) == 0)
    lock = std::make_unique<sync::TicketLock>(m);
  else
    lock = std::make_unique<sync::McsLock>(m, /*update_conscious=*/false);

  std::unique_ptr<sync::Barrier> barriers[3] = {
      std::make_unique<sync::CentralBarrier>(m),
      std::make_unique<sync::DisseminationBarrier>(m),
      std::make_unique<sync::TreeBarrier>(m),
  };
  sync::ParallelReduction reduction(m, *lock, *barriers[0]);

  std::vector<unsigned> seg_barrier(params.segments);
  std::vector<bool> seg_reduce(params.segments);
  for (unsigned s = 0; s < params.segments; ++s) {
    seg_barrier[s] = static_cast<unsigned>(master.below(3));
    seg_reduce[s] = master.below(4) == 0;
  }

  // Host-tracked expected memory images, filled in as the coroutines issue
  // operations (the simulator is single-threaded, and every stripe word has
  // exactly one writer, so "last host assignment" == "last simulated store").
  std::vector<std::uint64_t> expected(total_words, 0);
  std::vector<std::uint64_t> atomic_expected(kAtomicWords, 0);
  std::uint64_t cs_total = 0;
  std::uint64_t ops_total = 0;
  int in_cs = 0;

  RunResult r;
  const auto program = [&](cpu::Cpu& c) -> sim::Task {
    const NodeId p = c.id();
    sim::Rng rng(sim::Rng::derive(params.seed, 1 + p));
    // This processor's stripe: words w with w % P == p.
    const std::size_t own_count = total_words / P + (total_words % P > p ? 1 : 0);
    std::uint64_t reduce_round = 0;
    for (unsigned seg = 0; seg < params.segments; ++seg) {
      for (unsigned op = 0; op < params.ops_per_segment; ++op) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 35 || (roll < 65 && own_count == 0)) {
          const std::size_t w = rng.below(total_words);
          co_await c.load(arena + w * mem::kWordSize);
          ++ops_total;
        } else if (roll < 65) {
          const std::size_t w = rng.below(own_count) * P + p;
          const std::uint64_t v = rng.next();
          expected[w] = v;
          co_await c.store(arena + w * mem::kWordSize, v);
          ++ops_total;
        } else if (roll < 75) {
          const std::size_t k = rng.below(kAtomicWords);
          ++atomic_expected[k];
          co_await c.fetch_add(counters + (1 + k) * mem::kWordSize, 1);
          ++ops_total;
        } else if (roll < 90) {
          const Cycle t0 = c.queue().now();
          co_await lock->acquire(c);
          r.latency.add(c.queue().now() - t0);
          if (++in_cs != 1) throw std::logic_error("mutual exclusion violated");
          const std::uint64_t v = co_await c.load(counters);
          co_await c.think(kHoldCycles);
          co_await c.store(counters, v + 1);
          ++cs_total;
          --in_cs;
          co_await lock->release(c);
          ++ops_total;
        } else {
          co_await c.think(1 + rng.below(kMaxThink));
        }
      }
      if (seg_reduce[seg]) {
        // Round k's candidates dominate round k-1's, restarting the
        // running maximum; the winner each round is processor P-1.
        const std::uint64_t cand = (reduce_round + 1) * 256 + p + 1;
        std::uint64_t result = 0;
        co_await reduction.reduce(c, cand, &result);
        const std::uint64_t want = (reduce_round + 1) * 256 + P;
        if (result != want)
          throw std::logic_error("stress reduction produced " +
                                 std::to_string(result) + ", want " +
                                 std::to_string(want));
        ++reduce_round;
      }
      co_await barriers[seg_barrier[seg]]->wait(c);
    }
  };

  r.cycles = m.run_all(program);

  // End-to-end value audit against the host-tracked images (independent of
  // the invariant checker's shadow memory).
  if (const std::uint64_t got = m.peek(counters); got != cs_total)
    value_mismatch("lock-protected counter", counters, got, cs_total);
  for (std::size_t k = 0; k < kAtomicWords; ++k) {
    const Addr a = counters + (1 + k) * mem::kWordSize;
    if (const std::uint64_t got = m.peek(a); got != atomic_expected[k])
      value_mismatch("atomic counter", a, got, atomic_expected[k]);
  }
  for (std::size_t w = 0; w < total_words; ++w) {
    const Addr a = arena + w * mem::kWordSize;
    if (const std::uint64_t got = m.peek(a); got != expected[w])
      value_mismatch("stripe word", a, got, expected[w]);
  }

  r.avg_latency = ops_total == 0
                      ? 0.0
                      : static_cast<double>(r.cycles) / static_cast<double>(ops_total);
  r.counters = m.counters();
  capture_obs(r, m);
  return r;
}

} // namespace ccsim::harness
