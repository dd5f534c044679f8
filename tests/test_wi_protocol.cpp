// WI protocol behavior: MSI state transitions, forwarding, invalidation
// acknowledgements, release consistency, directory/cache agreement.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using mem::DirState;
using mem::LineState;
using proto::Protocol;

MachineConfig wi(unsigned n) {
  MachineConfig c;
  c.protocol = Protocol::WI;
  c.nprocs = n;
  return c;
}

TEST(WiProtocol, ReadFillsShared) {
  Machine m(wi(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.poke(a, 5);
  m.run({[&](cpu::Cpu& c) -> sim::Task { (void)co_await c.load(a); }});
  auto* line = m.node(0).cache_ctrl().cache().find(mem::block_of(a));
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::Shared);
  const auto* e = m.homes().find(mem::block_of(a));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_TRUE(e->has_sharer(0));
}

TEST(WiProtocol, WriteObtainsModified) {
  Machine m(wi(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 9);
    co_await c.fence();
  }});
  auto* line = m.node(0).cache_ctrl().cache().find(mem::block_of(a));
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::Modified);
  const auto* e = m.homes().find(mem::block_of(a));
  EXPECT_EQ(e->state, DirState::Exclusive);
  EXPECT_EQ(e->owner, 0u);
}

TEST(WiProtocol, WriteHitOnSharedIsUpgradeNotMiss) {
  Machine m(wi(2));
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    (void)co_await c.load(a);  // Shared
    co_await c.store(a, 1);    // upgrade
    co_await c.fence();
  }});
  EXPECT_EQ(m.counters().misses.exclusive_requests, 1u);
  EXPECT_EQ(m.counters().misses.total(), 1u) << "only the initial read miss";
}

TEST(WiProtocol, WriterInvalidatesReaders) {
  Machine m(wi(3));
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr go = m.alloc().allocate_on(2, 8);
  std::vector<Machine::Program> ps;
  // Two readers cache the block, then the writer takes it exclusive.
  for (int r = 0; r < 2; ++r) {
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      (void)co_await c.load(a);
      co_await c.store(go + 8 * c.id(), 1);  // private-ish signal word
      co_await c.spin_until(go + 16, [](std::uint64_t v) { return v == 1; });
      (void)co_await c.load(a);  // re-read after invalidation
    });
  }
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(go, [](std::uint64_t v) { return v == 1; });
    co_await c.spin_until(go + 8, [](std::uint64_t v) { return v == 1; });
    co_await c.store(a, 77);
    co_await c.fence();
    co_await c.store(go + 16, 1);
  });
  m.run(ps);
  // Each reader re-reads a after invalidation (2 true-sharing misses), and
  // the spins on the go block add more as its words are written.
  EXPECT_GE(m.counters().misses[stats::MissClass::TrueSharing], 4u);
  EXPECT_EQ(m.peek(a), 77u);
}

TEST(WiProtocol, DirtyForwardingServesReaderFromOwner) {
  Machine m(wi(3));
  const Addr a = m.alloc().allocate_on(2, 8);
  const Addr flag = m.alloc().allocate_on(2, 8);
  std::uint64_t got = 0;
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // writer: dirty copy
    co_await c.store(a, 1234);
    co_await c.fence();
    co_await c.store(flag, 1);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // reader
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    got = co_await c.load(a);
  });
  m.run(ps);
  EXPECT_EQ(got, 1234u);
  // After the forward the block is Shared at both and the home is clean.
  const auto* e = m.homes().find(mem::block_of(a));
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_TRUE(e->has_sharer(0));
  EXPECT_TRUE(e->has_sharer(1));
  EXPECT_EQ(m.homes().read_word(a, 8), 1234u);
}

TEST(WiProtocol, EvictionWritesBackDirtyData) {
  MachineConfig cfg = wi(2);
  cfg.cache_bytes = 1024;  // 16 sets: easy to conflict
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(1, 8);
  // A second block 16 blocks later maps to the same set.
  const Addr conflict = a + 16 * mem::kBlockSize;
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 42);
    co_await c.fence();
    (void)co_await c.load(conflict);  // evicts the dirty block
    (void)co_await c.load(a);         // reload: eviction miss
  }});
  EXPECT_EQ(m.counters().misses[stats::MissClass::Eviction], 1u);
  EXPECT_EQ(m.peek(a), 42u);
}

TEST(WiProtocol, NoUpdateMessagesEver) {
  Machine m(wi(4));
  const Addr a = m.alloc().allocate_on(0, 8);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      (void)co_await c.fetch_add(a, 1);
      (void)co_await c.load(a);
    }
  });
  EXPECT_EQ(m.counters().updates.total(), 0u);
}

TEST(WiProtocol, ReleaseFenceWaitsForInvalAcks) {
  Machine m(wi(8));
  const Addr a = m.alloc().allocate_on(0, 8);
  const Addr flag = m.alloc().allocate_on(0, 8);
  // 7 readers cache block a; the writer upgrades and fences. The fence
  // cannot complete before the 7 invalidation acks arrive, so the flag
  // write is ordered after them.
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    (void)co_await c.load(a);
    co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    // After the writer's release, our copy of a must be gone or fresh.
    EXPECT_EQ(co_await c.load(a), 50u);
  });
  for (int i = 1; i < 7; ++i)
    ps.push_back([&](cpu::Cpu& c) -> sim::Task { (void)co_await c.load(a); });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.think(200);  // let the readers cache it
    co_await c.store(a, 50);
    co_await c.fence();
    co_await c.store(flag, 1);
  });
  m.run(ps);
}

} // namespace
