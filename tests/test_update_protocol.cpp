// PU/CU protocol behavior: write-through updates, ack counting, the
// private-block optimization with recalls, write-allocate, competitive
// drops and prunes.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using mem::DirState;
using mem::LineState;
using proto::Protocol;

MachineConfig cfg_of(Protocol p, unsigned n) {
  MachineConfig c;
  c.protocol = p;
  c.nprocs = n;
  return c;
}

TEST(UpdateProtocol, SharerReceivesUpdateInPlace) {
  Machine m(cfg_of(Protocol::PU, 3));
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr flag = m.alloc().allocate_on(2, 8);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // reader caches a
    (void)co_await c.load(a);
    co_await c.store(flag, 1);
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 7; });
    // Spin satisfied by an update, not a refetch: no extra read miss.
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // writer
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    co_await c.store(a, 7);
    co_await c.fence();
  });
  m.run(ps);
  // Reader's copy must be fresh and still valid.
  auto* line = m.node(0).cache_ctrl().cache().find(mem::block_of(a));
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(m.node(0).cache_ctrl().cache().read(a, 8), 7u);
  // One useful update (the spinner referenced the word).
  EXPECT_GE(m.counters().updates[stats::UpdateClass::TrueSharing], 1u);
}

TEST(UpdateProtocol, WriteAllocatesAndWriterStaysSharer) {
  Machine m(cfg_of(Protocol::PU, 3));
  const Addr a = m.alloc().allocate_on(2, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 1);  // write miss -> allocate
    co_await c.fence();
  }});
  auto* line = m.node(0).cache_ctrl().cache().find(mem::block_of(a));
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(m.counters().misses.total(), 1u) << "the write-allocate fetch";
}

TEST(UpdateProtocol, PuGrantsPrivateToSoleSharer) {
  Machine m(cfg_of(Protocol::PU, 2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 1);  // allocate; sole sharer -> private grant
    co_await c.fence();
    for (int i = 2; i <= 10; ++i) co_await c.store(a, (std::uint64_t)i);
    co_await c.fence();
  }});
  auto* line = m.node(0).cache_ctrl().cache().find(mem::block_of(a));
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::PrivateDirty);
  const auto* e = m.homes().find(mem::block_of(a));
  EXPECT_EQ(e->state, DirState::Private);
  EXPECT_EQ(e->owner, 0u);
  // Retained updates: after the first couple of writes everything is
  // local, so the network message count stays small.
  EXPECT_LT(m.counters().net.messages + m.counters().net.local, 12u);
}

TEST(UpdateProtocol, CuNeverGrantsPrivate) {
  Machine m(cfg_of(Protocol::CU, 2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 10; ++i) co_await c.store(a, (std::uint64_t)i);
    co_await c.fence();
  }});
  auto* line = m.node(0).cache_ctrl().cache().find(mem::block_of(a));
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::ValidU);
}

TEST(UpdateProtocol, RecallReturnsPrivateDataToReader) {
  Machine m(cfg_of(Protocol::PU, 3));
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr flag = m.alloc().allocate_on(2, 8);
  std::uint64_t got = 0;
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // private writer
    for (int i = 1; i <= 5; ++i) co_await c.store(a, (std::uint64_t)i * 11);
    co_await c.fence();
    co_await c.store(flag, 1);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // reader triggers recall
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    got = co_await c.load(a);
  });
  m.run(ps);
  EXPECT_EQ(got, 55u);
  // After the recall the block is back in update mode with both sharers.
  const auto* e = m.homes().find(mem::block_of(a));
  EXPECT_EQ(e->state, DirState::Update);
  EXPECT_TRUE(e->has_sharer(0));
  EXPECT_TRUE(e->has_sharer(1));
}

TEST(UpdateProtocol, CompetitiveCounterDropsAfterThreshold) {
  MachineConfig cfg = cfg_of(Protocol::CU, 3);
  cfg.cu_threshold = 4;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr flag = m.alloc().allocate_on(2, 8);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // victim caches, never rereads
    (void)co_await c.load(a);
    co_await c.store(flag, 1);
    co_await c.spin_until(flag + 8, [](std::uint64_t v) { return v == 1; });
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // writer streams updates
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    for (int i = 0; i < 10; ++i) {
      co_await c.store(a, (std::uint64_t)i);
      co_await c.fence();
    }
    co_await c.store(flag + 8, 1);
  });
  m.run(ps);
  // The victim's copy must have been dropped at the 4th update.
  EXPECT_EQ(m.node(0).cache_ctrl().cache().find(mem::block_of(a)), nullptr);
  EXPECT_EQ(m.counters().updates[stats::UpdateClass::Drop], 1u);
  // And the home pruned it: the remaining updates went nowhere.
  const auto* e = m.homes().find(mem::block_of(a));
  EXPECT_FALSE(e->has_sharer(0));
}

TEST(UpdateProtocol, LocalReferenceResetsCounter) {
  MachineConfig cfg = cfg_of(Protocol::CU, 3);
  cfg.cu_threshold = 4;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr flag = m.alloc().allocate_on(2, 8);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // active reader: re-references
    (void)co_await c.load(a);
    co_await c.store(flag, 1);
    for (int i = 0; i < 10; ++i) {
      co_await c.spin_until(a, [i](std::uint64_t v) {
        return v >= static_cast<std::uint64_t>(i);
      });
    }
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    for (int i = 0; i < 10; ++i) {
      co_await c.store(a, (std::uint64_t)i);
      co_await c.fence();
      co_await c.think(20);
    }
  });
  m.run(ps);
  // The active reader kept resetting its counter: no drops.
  EXPECT_EQ(m.counters().updates[stats::UpdateClass::Drop], 0u);
  EXPECT_NE(m.node(0).cache_ctrl().cache().find(mem::block_of(a)), nullptr);
}

TEST(UpdateProtocol, PuEqualsCuWhenNothingDrops) {
  // A workload where every update is consumed: PU and CU must agree on
  // cycles exactly (the protocols only diverge at drops).
  for (unsigned n : {2u, 4u}) {
    Cycle cy[2];
    int i = 0;
    for (Protocol p : {Protocol::PU, Protocol::CU}) {
      Machine m(cfg_of(p, n));
      sync::DisseminationBarrier b(m);
      cy[i++] = m.run_all([&](cpu::Cpu& c) -> sim::Task {
        for (int e = 0; e < 20; ++e) co_await b.wait(c);
      });
    }
    EXPECT_EQ(cy[0], cy[1]) << "PU and CU diverged without any drops (n=" << n << ")";
  }
}

TEST(UpdateProtocol, FenceCollectsAllSharerAcks) {
  Machine m(cfg_of(Protocol::PU, 8));
  const Addr a = m.alloc().allocate_on(0, 8);
  const Addr flag = m.alloc().allocate_on(0, 8);
  // 7 procs cache the block; the writer's fence completes only after all
  // sharers acked its update; afterwards every copy must be fresh.
  std::vector<Machine::Program> ps;
  for (int i = 0; i < 7; ++i) {
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      (void)co_await c.load(a);
      co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
      EXPECT_EQ(m.node(c.id()).cache_ctrl().cache().read(a, 8), 99u);
    });
  }
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.think(300);
    co_await c.store(a, 99);
    co_await c.fence();  // must wait for 7 acks
    co_await c.store(flag, 1);
  });
  m.run(ps);
}

} // namespace
