// Cpu::flush (user-level block flush) semantics across protocols: drops the
// block, writes dirty data back, removes the node from the sharing set,
// orders after program-order-earlier stores, and is a no-op when absent.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

class Flush : public ::testing::TestWithParam<Protocol> {
protected:
  MachineConfig cfg(unsigned n) {
    MachineConfig c;
    c.protocol = GetParam();
    c.nprocs = n;
    return c;
  }
};

INSTANTIATE_TEST_SUITE_P(AllProtocols, Flush,
                         ::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                         [](const auto& info) {
                           return std::string(proto::to_string(info.param));
                         });

TEST_P(Flush, DropsCleanCopy) {
  Machine m(cfg(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    (void)co_await c.load(a);
    co_await c.flush(a);
  }});
  EXPECT_EQ(m.node(0).cache_ctrl().cache().find(mem::block_of(a)), nullptr);
}

TEST_P(Flush, DirtyDataSurvivesTheFlush) {
  Machine m(cfg(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 4321);
    co_await c.flush(a);  // must wait for the store, then write back
    co_await c.fence();
    EXPECT_EQ(co_await c.load(a), 4321u);
  }});
  EXPECT_EQ(m.peek(a), 4321u);
}

TEST_P(Flush, ReloadClassifiedAsEvictionMiss) {
  Machine m(cfg(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    (void)co_await c.load(a);
    co_await c.flush(a);
    (void)co_await c.load(a);
  }});
  EXPECT_EQ(m.counters().misses[stats::MissClass::Eviction], 1u);
}

TEST_P(Flush, FlushOfAbsentBlockIsNoop) {
  Machine m(cfg(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task { co_await c.flush(a); }});
  EXPECT_EQ(m.counters().misses.total(), 0u);
  EXPECT_EQ(m.counters().net.messages, 0u);
}

TEST_P(Flush, FlushedSharerStopsReceivingTraffic) {
  // After the flush, the home must not consider us a sharer: a subsequent
  // remote write generates no message toward us (no Inval / no Update).
  Machine m(cfg(3));
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr flag = m.alloc().allocate_on(2, 8);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    (void)co_await c.load(a);
    co_await c.flush(a);
    co_await c.store(flag, 1);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    co_await c.store(a, 5);
    co_await c.fence();
  });
  m.run(ps);
  const auto* e = m.homes().find(mem::block_of(a));
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->has_sharer(0));
  // No update was delivered to node 0 (nothing pending at finalize).
  EXPECT_EQ(m.counters().updates[stats::UpdateClass::Termination], 0u);
}

} // namespace
