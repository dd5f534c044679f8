// Hybrid (per-region protocol) machine: correctness of mixed-domain
// programs, per-domain traffic signatures, fences spanning domains, and
// the paper's punchline -- binding each construct to its best protocol
// beats any single-protocol machine.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

MachineConfig hybrid(unsigned n) {
  MachineConfig c;
  c.protocol = Protocol::Hybrid;
  c.nprocs = n;
  c.obs.check_invariants = true;  // audits every engine's cache
  return c;
}

void bind_dissemination(Machine& m, sync::DisseminationBarrier& b, Protocol p) {
  for (NodeId i = 0; i < m.nprocs(); ++i)
    for (unsigned parity = 0; parity < 2; ++parity)
      for (unsigned r = 0; r < b.rounds(); ++r)
        m.bind_protocol(b.flag_addr(i, parity, r), mem::kBlockSize, p);
}

void bind_mcs(Machine& m, sync::McsLock& l, Protocol p) {
  m.bind_protocol(l.tail_addr(), mem::kWordSize, p);
  for (NodeId i = 0; i < m.nprocs(); ++i)
    m.bind_protocol(l.qnode_addr(i), 2 * mem::kWordSize, p);
}

TEST(Hybrid, BindRequiresHybridMachine) {
  MachineConfig cfg;
  cfg.protocol = Protocol::WI;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8);
  EXPECT_THROW(m.bind_protocol(a, 8, Protocol::PU), std::logic_error);
}

TEST(Hybrid, BindToTheHybridPseudoProtocolThrows) {
  Machine m(hybrid(2));
  const Addr a = m.alloc().allocate_on(0, 8);
  m.bind_protocol(a, 8, Protocol::PU);
  EXPECT_THROW(m.bind_protocol(a, 8, Protocol::Hybrid), std::invalid_argument);
  // The allocator is untouched: the block keeps its PU binding.
  EXPECT_EQ(m.alloc().domain_of(mem::block_of(a)),
            static_cast<std::uint8_t>(Protocol::PU));
}

TEST(Hybrid, DomainNamingNoEngineAborts) {
  // A domain written past bind_protocol names no engine: the controllers
  // stop with a check instead of indexing past their engines.
  EXPECT_DEATH(
      {
        Machine m(hybrid(2));
        const Addr a = m.alloc().allocate_on(0, 8);
        m.alloc().set_domain(a, 8, 3);
        m.run({[&](cpu::Cpu& c) -> sim::Task { (void)co_await c.load(a); }});
      },
      "domain 3 names no WI, PU or CU engine");
}

TEST(Hybrid, MixedDomainsProduceMixedTrafficSignatures) {
  Machine m(hybrid(2));
  const Addr wi_region = m.alloc().allocate_on(1, 8);
  const Addr pu_region = m.alloc().allocate_on(1, 8);
  m.bind_protocol(wi_region, 8, Protocol::WI);
  m.bind_protocol(pu_region, 8, Protocol::PU);

  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // reader caches both
    (void)co_await c.load(wi_region);
    (void)co_await c.load(pu_region);
    co_await c.spin_until(pu_region, [](std::uint64_t v) { return v == 5; });
    EXPECT_EQ(co_await c.load(wi_region), 5u);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // writer touches both
    co_await c.think(300);
    for (int k = 1; k <= 5; ++k) {
      co_await c.store(wi_region, static_cast<std::uint64_t>(k));
      co_await c.store(pu_region, static_cast<std::uint64_t>(k));
      co_await c.fence();  // spans both domains
    }
  });
  m.run(ps);
  // WI-bound traffic invalidates; PU-bound traffic updates.
  EXPECT_GT(m.counters().net.of(net::MsgType::Inval), 0u);
  EXPECT_GT(m.counters().net.of(net::MsgType::Update), 0u);
  EXPECT_GE(m.counters().updates[stats::UpdateClass::TrueSharing], 4u);
}

TEST(Hybrid, UnboundRegionsRunWi) {
  Machine m(hybrid(2));
  const Addr a = m.alloc().allocate_on(1, 8);  // unbound -> WI
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    (void)co_await c.load(a);
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.think(200);
    co_await c.store(a, 1);
    co_await c.fence();
  });
  m.run(ps);
  EXPECT_GT(m.counters().net.of(net::MsgType::Inval), 0u);
  EXPECT_EQ(m.counters().net.of(net::MsgType::Update), 0u);
}

TEST(Hybrid, ConstructsRunCorrectlyInTheirDomains) {
  const unsigned n = 8;
  Machine m(hybrid(n));
  sync::McsLock lock(m);
  sync::DisseminationBarrier barrier(m);
  bind_mcs(m, lock, Protocol::CU);
  bind_dissemination(m, barrier, Protocol::PU);
  const Addr ctr = m.alloc().allocate_on(0, 8);
  m.bind_protocol(ctr, 8, Protocol::WI);

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 12; ++i) {
      co_await lock.acquire(c);
      const std::uint64_t v = co_await c.load(ctr);
      co_await c.store(ctr, v + 1);
      co_await lock.release(c);
      co_await barrier.wait(c);
    }
  });
  EXPECT_EQ(m.peek(ctr), 12u * n);
  // All three engines saw action: CU drops possible, PU updates certain,
  // WI exclusive requests certain.
  EXPECT_GT(m.counters().net.of(net::MsgType::Update), 0u);
  EXPECT_GT(m.counters().net.of(net::MsgType::GetX) +
                m.counters().net.of(net::MsgType::Upgrade),
            0u);
}

TEST(Hybrid, AtomicsRouteToTheirDomainEngine) {
  Machine m(hybrid(4));
  const Addr wi_ctr = m.alloc().allocate_on(0, 8);
  const Addr pu_ctr = m.alloc().allocate_on(0, 8);
  m.bind_protocol(wi_ctr, 8, Protocol::WI);
  m.bind_protocol(pu_ctr, 8, Protocol::PU);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      (void)co_await c.fetch_add(wi_ctr, 1);
      (void)co_await c.fetch_add(pu_ctr, 1);
    }
  });
  EXPECT_EQ(m.peek(wi_ctr), 40u);
  EXPECT_EQ(m.peek(pu_ctr), 40u);
  // PU atomics run at the home; WI atomics in the cache.
  EXPECT_EQ(m.counters().net.of(net::MsgType::AtomicReq), 40u);
}

TEST(Hybrid, ProfileCountsTheEnginesWriteBuffers) {
  // A hybrid node's stores go to its engines' write buffers; the profile
  // reports their deepest occupancy and every store they accepted.
  MachineConfig cfg = hybrid(2);
  cfg.obs.profile = true;
  Machine m(cfg);
  const Addr wi_region = m.alloc().allocate_on(1, 8);
  const Addr cu_region = m.alloc().allocate_on(1, 8);
  m.bind_protocol(wi_region, 8, Protocol::WI);
  m.bind_protocol(cu_region, 8, Protocol::CU);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int k = 1; k <= 6; ++k) {
      co_await c.store(wi_region, static_cast<std::uint64_t>(k));
      co_await c.store(cu_region, static_cast<std::uint64_t>(k));
    }
    co_await c.fence();
  });
  const obs::ProfileSnapshot p = m.profile();
  EXPECT_EQ(p.wb_pushes, m.counters().mem.shared_writes);
  EXPECT_EQ(p.wb_pushes, 24u);
  EXPECT_GE(p.wb_peak, 1u);
  EXPECT_LE(p.wb_peak, mem::kWriteBufferEntries);
}

TEST(Hybrid, BestOfBothBeatsPureMachines) {
  // The paper's conclusion, executed: a lock-heavy + barrier-heavy loop
  // where the best lock protocol (CU) and best barrier protocol (PU)
  // differ... within one application. The hybrid machine binding each
  // construct to its preferred protocol must beat every pure machine.
  const unsigned n = 16;
  const int rounds = 40;
  const auto run_pure = [&](Protocol p) {
    MachineConfig cfg;
    cfg.protocol = p;
    cfg.nprocs = n;
    Machine m(cfg);
    sync::McsLock lock(m);
    sync::DisseminationBarrier barrier(m);
    return m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < rounds; ++i) {
        co_await lock.acquire(c);
        co_await c.think(30);
        co_await lock.release(c);
        co_await barrier.wait(c);
      }
    });
  };
  const auto run_hybrid = [&] {
    Machine m(hybrid(n));
    sync::McsLock lock(m);
    sync::DisseminationBarrier barrier(m);
    bind_mcs(m, lock, Protocol::CU);
    bind_dissemination(m, barrier, Protocol::PU);
    return m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < rounds; ++i) {
        co_await lock.acquire(c);
        co_await c.think(30);
        co_await lock.release(c);
        co_await barrier.wait(c);
      }
    });
  };
  const Cycle hy = run_hybrid();
  EXPECT_LE(hy, run_pure(Protocol::WI));
  EXPECT_LE(hy, run_pure(Protocol::PU));
  EXPECT_LE(hy, run_pure(Protocol::CU) * 101 / 100);
}

TEST(Hybrid, PunchlineLockWantsCuBarrierWantsWi) {
  // The conflicting-preferences pairing (see bench/abl_hybrid): MCS lock
  // (best under CU) + centralized barrier (best under WI at scale) in one
  // loop. The hybrid binding must beat every pure machine at P=32.
  const unsigned n = 32;
  const int rounds = 25;
  const auto run = [&](Protocol machine, bool bind) {
    MachineConfig cfg;
    cfg.protocol = machine;
    cfg.nprocs = n;
    Machine m(cfg);
    sync::McsLock lock(m);
    sync::CentralBarrier barrier(m);
    if (bind) {
      bind_mcs(m, lock, Protocol::CU);
      m.bind_protocol(barrier.count_addr(), 2 * mem::kWordSize, Protocol::WI);
    }
    return m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < rounds; ++i) {
        co_await lock.acquire(c);
        co_await c.think(50);
        co_await lock.release(c);
        co_await barrier.wait(c);
      }
    });
  };
  const Cycle hy = run(Protocol::Hybrid, true);
  EXPECT_LT(hy, run(Protocol::WI, false));
  EXPECT_LT(hy, run(Protocol::PU, false));
  EXPECT_LT(hy, run(Protocol::CU, false));
}

TEST(Hybrid, DeterministicLikeEverythingElse) {
  const auto once = [&] {
    Machine m(hybrid(4));
    const Addr a = m.alloc().allocate_on(0, 8);
    const Addr b = m.alloc().allocate_on(1, 8);
    m.bind_protocol(a, 8, Protocol::PU);
    m.bind_protocol(b, 8, Protocol::WI);
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < 20; ++i) {
        (void)co_await c.fetch_add(a, 1);
        (void)co_await c.fetch_add(b, 1);
      }
    });
    return m.queue().now();
  };
  EXPECT_EQ(once(), once());
}

} // namespace
