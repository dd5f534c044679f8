#include "harness/workloads.hpp"

#include "sim/rng.hpp"
#include "sync/barriers.hpp"
#include "sync/magic_sync.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/reductions.hpp"
#include "sync/sync.hpp"
#include "sync/ticket_lock.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

namespace ccsim::harness {

std::string_view to_string(LockKind k) noexcept {
  switch (k) {
    case LockKind::Ticket: return "ticket";
    case LockKind::Mcs: return "MCS";
    case LockKind::UcMcs: return "uc-MCS";
  }
  return "?";
}
std::string_view to_string(BarrierKind k) noexcept {
  switch (k) {
    case BarrierKind::Central: return "central";
    case BarrierKind::Dissemination: return "dissem";
    case BarrierKind::Tree: return "tree";
    case BarrierKind::CombiningTree: return "ctree";
  }
  return "?";
}
std::string_view to_string(ReductionKind k) noexcept {
  switch (k) {
    case ReductionKind::Parallel: return "parallel";
    case ReductionKind::Sequential: return "sequential";
  }
  return "?";
}

std::string_view tag(LockKind k) noexcept {
  switch (k) {
    case LockKind::Ticket: return "tk";
    case LockKind::Mcs: return "MCS";
    case LockKind::UcMcs: return "uc";
  }
  return "?";
}
std::string_view tag(BarrierKind k) noexcept {
  switch (k) {
    case BarrierKind::Central: return "cb";
    case BarrierKind::Dissemination: return "db";
    case BarrierKind::Tree: return "tb";
    case BarrierKind::CombiningTree: return "ct";
  }
  return "?";
}
std::string_view tag(ReductionKind k) noexcept {
  return k == ReductionKind::Parallel ? "pr" : "sr";
}

namespace {
std::unique_ptr<sync::Lock> make_lock(Machine& m, LockKind kind) {
  switch (kind) {
    case LockKind::Ticket: return std::make_unique<sync::TicketLock>(m);
    case LockKind::Mcs: return std::make_unique<sync::McsLock>(m, false);
    case LockKind::UcMcs: return std::make_unique<sync::McsLock>(m, true);
  }
  throw std::invalid_argument("bad lock kind");
}

std::unique_ptr<sync::Barrier> make_barrier(Machine& m, BarrierKind kind) {
  switch (kind) {
    case BarrierKind::Central: return std::make_unique<sync::CentralBarrier>(m);
    case BarrierKind::Dissemination:
      return std::make_unique<sync::DisseminationBarrier>(m);
    case BarrierKind::Tree: return std::make_unique<sync::TreeBarrier>(m);
    case BarrierKind::CombiningTree:
      return std::make_unique<sync::CombiningTreeBarrier>(m);
  }
  throw std::invalid_argument("bad barrier kind");
}
} // namespace

void capture_obs(RunResult& r, const Machine& m) {
  r.samples = m.samples();
  r.hot = m.hot_blocks();
  r.profile = m.profile();
  r.invariant_checks = m.invariant_checks();
  r.host = m.host_report();
  r.sharing = m.sharing_report();
}

RunResult run_lock_experiment(const MachineConfig& cfg, LockKind kind,
                              const LockParams& params) {
  Machine m(cfg);
  auto lock = make_lock(m, kind);

  const std::uint64_t iters = std::max<std::uint64_t>(1, params.total_acquires / cfg.nprocs);
  const std::uint64_t executed = iters * cfg.nprocs;

  // Host-side mutual-exclusion check: free (no simulated traffic), fatal
  // if the lock ever admits two holders.
  int in_cs = 0;

  RunResult r;
  const auto program = [&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(params.seed, c.id()));
    for (std::uint64_t i = 0; i < iters; ++i) {
      const Cycle t0 = c.queue().now();
      co_await lock->acquire(c);
      r.latency.add(c.queue().now() - t0);
      if (++in_cs != 1) throw std::logic_error("mutual exclusion violated");
      co_await c.think(params.hold_cycles);
      --in_cs;
      co_await lock->release(c);
      if (params.work_ratio != 0) {
        // Work outside / inside the critical section ~= work_ratio (+-10%).
        const Cycle base = params.hold_cycles * params.work_ratio;
        const Cycle jitter = base / 10;
        co_await c.think(base - jitter + rng.below(2 * jitter + 1));
      } else if (params.random_pause_max != 0) {
        co_await c.think(1 + rng.below(params.random_pause_max));
      }
    }
  };

  r.cycles = m.run_all(program);
  r.avg_latency = static_cast<double>(r.cycles) / static_cast<double>(executed) -
                  static_cast<double>(params.hold_cycles);
  r.counters = m.counters();
  capture_obs(r, m);
  return r;
}

RunResult run_barrier_experiment(const MachineConfig& cfg, BarrierKind kind,
                                 const BarrierParams& params) {
  Machine m(cfg);
  auto barrier = make_barrier(m, kind);

  // Host-side episode tracking: no processor may be more than one episode
  // ahead of any other once it leaves the barrier.
  std::vector<std::uint64_t> finished(cfg.nprocs, 0);
  std::vector<Cycle> last_exit(cfg.nprocs, 0);

  RunResult r;
  const auto program = [&](cpu::Cpu& c) -> sim::Task {
    for (std::uint64_t e = 0; e < params.episodes; ++e) {
      co_await barrier->wait(c);
      r.latency.add(c.queue().now() - last_exit[c.id()]);
      last_exit[c.id()] = c.queue().now();
      finished[c.id()] = e + 1;
      for (std::uint64_t f : finished) {
        if (f + 1 < e + 1) throw std::logic_error("barrier episode overlap");
      }
    }
  };

  r.cycles = m.run_all(program);
  r.avg_latency = static_cast<double>(r.cycles) / static_cast<double>(params.episodes);
  r.counters = m.counters();
  capture_obs(r, m);
  return r;
}

RunResult run_reduction_experiment(const MachineConfig& cfg, ReductionKind kind,
                                   const ReductionParams& params) {
  Machine m(cfg);
  sync::MagicLock lock(m.queue());
  sync::MagicBarrier barrier(m.queue(), cfg.nprocs);

  std::unique_ptr<sync::ParallelReduction> par;
  std::unique_ptr<sync::SequentialReduction> seq;
  if (kind == ReductionKind::Parallel)
    par = std::make_unique<sync::ParallelReduction>(m, lock, barrier);
  else
    seq = std::make_unique<sync::SequentialReduction>(m, barrier);

  // Fresh i.i.d. candidates each round, reduced into a RUNNING maximum --
  // exactly the paper's figure-6/7 loop, where "code that changes
  // local_max" draws new values but `max` is never reset. Writes to `max`
  // become rare after warm-up (expected total ~ln(rounds * P)), which is
  // what makes the parallel reduction read-mostly. The oracle is the
  // running maximum over all candidates seen so far.
  const auto candidate = [&](std::uint64_t round, NodeId pid) {
    sim::Rng rng(sim::Rng::derive(params.seed ^ (round * 0x9e37ULL), pid));
    return rng.below(1ULL << 40);
  };
  std::vector<std::uint64_t> oracle(params.rounds, 0);
  std::uint64_t running = 0;
  for (std::uint64_t rd = 0; rd < params.rounds; ++rd) {
    for (NodeId p = 0; p < cfg.nprocs; ++p)
      running = std::max(running, candidate(rd, p));
    oracle[rd] = running;
  }

  const auto program = [&](cpu::Cpu& c) -> sim::Task {
    sim::Rng pause_rng(sim::Rng::derive(params.seed * 31, c.id()));
    for (std::uint64_t rd = 0; rd < params.rounds; ++rd) {
      if (params.imbalance_max != 0)
        co_await c.think(pause_rng.below(params.imbalance_max + 1));
      std::uint64_t result = 0;
      const std::uint64_t v = candidate(rd, c.id());
      if (par)
        co_await par->reduce(c, v, &result);
      else
        co_await seq->reduce(c, v, &result);
      if (params.verify && result != oracle[rd])
        throw std::logic_error("reduction produced a wrong global maximum");
    }
  };

  RunResult r;
  r.cycles = m.run_all(program);
  r.avg_latency = static_cast<double>(r.cycles) / static_cast<double>(params.rounds);
  r.counters = m.counters();
  capture_obs(r, m);
  return r;
}

} // namespace ccsim::harness
