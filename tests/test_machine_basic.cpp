// End-to-end smoke tests: build a machine per protocol, run simple
// programs, check values, timing sanity and basic counter behavior.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

MachineConfig cfg_for(Protocol p, unsigned n) {
  MachineConfig c;
  c.protocol = p;
  c.nprocs = n;
  return c;
}

class MachineBasic : public ::testing::TestWithParam<Protocol> {};

INSTANTIATE_TEST_SUITE_P(AllProtocols, MachineBasic,
                         ::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                         [](const auto& info) {
                           return std::string(proto::to_string(info.param));
                         });

TEST_P(MachineBasic, SingleProcLoadAfterStore) {
  Machine m(cfg_for(GetParam(), 1));
  const Addr a = m.alloc().allocate(8);
  std::uint64_t seen = 0;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 123);
    co_await c.fence();
    seen = co_await c.load(a);
  });
  EXPECT_EQ(seen, 123u);
  EXPECT_EQ(m.peek(a), 123u);
}

TEST_P(MachineBasic, PokeIsVisibleToLoads) {
  Machine m(cfg_for(GetParam(), 2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.poke(a, 77);
  std::uint64_t seen[2] = {0, 0};
  m.run_all([&](cpu::Cpu& c) -> sim::Task { seen[c.id()] = co_await c.load(a); });
  EXPECT_EQ(seen[0], 77u);
  EXPECT_EQ(seen[1], 77u);
}

TEST_P(MachineBasic, ProducerConsumerThroughSpin) {
  Machine m(cfg_for(GetParam(), 2));
  const Addr flag = m.alloc().allocate_on(1, 8);
  const Addr data = m.alloc().allocate_on(0, 8);
  std::uint64_t got = 0;
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // producer
    co_await c.store(data, 555);
    co_await c.fence();
    co_await c.store(flag, 1);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // consumer
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    got = co_await c.load(data);
  });
  m.run(ps);
  EXPECT_EQ(got, 555u);
}

TEST_P(MachineBasic, FetchAddSerializesAcrossProcs) {
  const unsigned P = 8;
  Machine m(cfg_for(GetParam(), P));
  const Addr ctr = m.alloc().allocate_on(0, 8);
  std::vector<std::uint64_t> got;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t old = co_await c.fetch_add(ctr, 1);
      got.push_back(old);
    }
  });
  EXPECT_EQ(m.peek(ctr), 4 * P);
  // Every intermediate value must have been handed out exactly once.
  std::sort(got.begin(), got.end());
  for (std::uint64_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
}

TEST_P(MachineBasic, ThinkAdvancesTime) {
  Machine m(cfg_for(GetParam(), 1));
  const Cycle t = m.run_all([&](cpu::Cpu& c) -> sim::Task { co_await c.think(1000); });
  EXPECT_GE(t, 1000u);
  EXPECT_LT(t, 1100u);
}

TEST_P(MachineBasic, PrivateMemoryCostsOneCycleAndStaysLocal) {
  Machine m(cfg_for(GetParam(), 1));
  std::uint64_t v = 0;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(0x100, 9);  // below kSharedBase: private
    v = co_await c.load(0x100);
  });
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(m.counters().net.messages, 0u);
  EXPECT_EQ(m.counters().misses.total(), 0u);
}

TEST_P(MachineBasic, RunTwiceThrows) {
  Machine m(cfg_for(GetParam(), 1));
  m.run_all([](cpu::Cpu& c) -> sim::Task { co_await c.think(1); });
  EXPECT_THROW(m.run_all([](cpu::Cpu& c) -> sim::Task { co_await c.think(1); }),
               std::logic_error);
}

TEST_P(MachineBasic, NodeCountMustFitTheFullMapDirectory) {
  // 0 nodes used to divide by zero at the first allocation, and 65 overflowed
  // the 64-bit sharer set into a spurious lost-wakeup deadlock.
  EXPECT_THROW({ Machine m(cfg_for(GetParam(), 0)); }, std::invalid_argument);
  EXPECT_THROW({ Machine m(cfg_for(GetParam(), mem::kMaxNodes + 1)); },
               std::invalid_argument);
  Machine m(cfg_for(GetParam(), mem::kMaxNodes));
  const Addr a = m.alloc().allocate_on(0, 8);
  m.run_all([&](cpu::Cpu& c) -> sim::Task { (void)co_await c.load(a); });
  EXPECT_EQ(m.counters().misses[stats::MissClass::Cold], mem::kMaxNodes);
}

TEST_P(MachineBasic, ColdMissesAreClassifiedCold) {
  Machine m(cfg_for(GetParam(), 2));
  const Addr a = m.alloc().allocate_on(0, 8);
  m.run_all([&](cpu::Cpu& c) -> sim::Task { (void)co_await c.load(a); });
  EXPECT_EQ(m.counters().misses[stats::MissClass::Cold], 2u);
  EXPECT_EQ(m.counters().misses.total(), 2u);
}

} // namespace
