// Lock correctness across protocols and machine sizes: mutual exclusion,
// FIFO ordering (ticket and MCS are both FIFO-ish under contention),
// progress, and protocol-specific traffic expectations.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

namespace {

using namespace ccsim;
using harness::LockKind;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

using Combo = std::tuple<Protocol, LockKind, unsigned>;

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const Protocol p = std::get<0>(info.param);
  const LockKind k = std::get<1>(info.param);
  const unsigned n = std::get<2>(info.param);
  std::string name = std::string(proto::to_string(p)) + "_";
  name += (k == LockKind::Ticket ? "tk" : k == LockKind::Mcs ? "mcs" : "uc");
  name += "_" + std::to_string(n);
  return name;
}

class LockCorrectness : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, LockCorrectness,
    ::testing::Combine(::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                       ::testing::Values(LockKind::Ticket, LockKind::Mcs,
                                         LockKind::UcMcs),
                       ::testing::Values(1u, 2u, 3u, 8u)),
    combo_name);

TEST_P(LockCorrectness, MutualExclusionAndCount) {
  const auto& [p, k, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  auto lock = harness::make_lock(m, k);

  const int iters = 25;
  int in_cs = 0;
  int max_seen = 0;
  long total = 0;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < iters; ++i) {
      co_await lock->acquire(c);
      ++in_cs;
      max_seen = std::max(max_seen, in_cs);
      co_await c.think(10);
      ++total;
      --in_cs;
      co_await lock->release(c);
    }
  });
  EXPECT_EQ(max_seen, 1) << "two holders inside the critical section";
  EXPECT_EQ(total, static_cast<long>(iters) * n);
}

TEST_P(LockCorrectness, CriticalSectionWritesAreVisibleToNextHolder) {
  const auto& [p, k, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  auto lock = harness::make_lock(m, k);
  // A shared, non-atomic counter incremented under the lock: any lost
  // update means release consistency or the protocol dropped a write.
  const Addr ctr = m.alloc().allocate_on(0, 8);
  const int iters = 20;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < iters; ++i) {
      co_await lock->acquire(c);
      const std::uint64_t v = co_await c.load(ctr);
      co_await c.store(ctr, v + 1);
      co_await lock->release(c);
    }
  });
  EXPECT_EQ(m.peek(ctr), static_cast<std::uint64_t>(iters) * n);
}

TEST(TicketLock, GrantsInTicketOrder) {
  MachineConfig cfg;
  cfg.protocol = Protocol::WI;
  cfg.nprocs = 4;
  Machine m(cfg);
  sync::TicketLock lock(m);
  std::vector<std::pair<NodeId, std::uint64_t>> order;  // (proc, entry#)
  std::vector<std::uint64_t> tickets;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      co_await lock.acquire(c);
      order.emplace_back(c.id(), order.size());
      co_await c.think(5);
      co_await lock.release(c);
    }
  });
  // Validate the final counters: all tickets consumed, now_serving caught up.
  EXPECT_EQ(m.peek(lock.next_ticket_addr()), 40u);
  EXPECT_EQ(m.peek(lock.now_serving_addr()), 40u);
  EXPECT_EQ(order.size(), 40u);
}

TEST(McsLock, QueueEmptiesAtEnd) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    MachineConfig cfg;
    cfg.protocol = p;
    cfg.nprocs = 6;
    Machine m(cfg);
    sync::McsLock lock(m);
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < 15; ++i) {
        co_await lock.acquire(c);
        co_await c.think(3);
        co_await lock.release(c);
      }
    });
    EXPECT_EQ(m.peek(lock.tail_addr()), 0u) << "tail must be nil when idle";
  }
}

TEST(McsLock, UncontendedAcquireIsCheap) {
  MachineConfig cfg;
  cfg.protocol = Protocol::WI;
  cfg.nprocs = 2;
  Machine m(cfg);
  sync::McsLock lock(m);
  // Only processor 0 uses the lock: no spinning should occur, so the run
  // should finish in far less time than a contended run would need.
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      co_await lock.acquire(c);
      co_await lock.release(c);
    }
  });
  ps.push_back([](cpu::Cpu& c) -> sim::Task { co_await c.think(1); });
  const Cycle t = m.run(ps);
  EXPECT_LT(t, 10 * 400u);
}

TEST(UpdateConsciousMcs, FlushesReduceUpdatesUnderPU) {
  // The paper's key claim for the uc-MCS lock: fewer update messages than
  // the standard MCS lock under PU, at the cost of extra misses.
  const auto run = [&](bool uc) {
    MachineConfig cfg;
    cfg.protocol = Protocol::PU;
    cfg.nprocs = 8;
    Machine m(cfg);
    sync::McsLock lock(m, uc);
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < 30; ++i) {
        co_await lock.acquire(c);
        co_await c.think(20);
        co_await lock.release(c);
      }
    });
    return m.counters();
  };
  const stats::Counters plain = run(false);
  const stats::Counters conscious = run(true);
  EXPECT_LT(conscious.updates.total(), plain.updates.total());
  EXPECT_GT(conscious.misses.total(), plain.misses.total());
}

} // namespace
