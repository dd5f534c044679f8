// Race-path coverage: the transient protocol paths (forward-nack +
// writeback replay, upgrade-converted-to-GetX, recalls hitting evicted
// owners, fills stalled by in-transaction victims) only trigger in narrow
// timing windows. These tests sweep a think()-offset across that window --
// the simulator is deterministic, so the sweep reliably covers the races --
// assert correctness at every offset, and assert that the rare messages
// actually fired somewhere in the sweep (so the paths are provably
// exercised, not silently skipped).
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using net::MsgType;
using proto::Protocol;

/// Keeps every trace event of a run.
struct TraceRecorder final : obs::TraceSink {
  std::vector<obs::TraceEvent> events;
  void on_event(const obs::TraceEvent& e) override { events.push_back(e); }
};

/// One message a home sent or received, as the trace shows it.
struct HomeStep {
  bool sent;
  MsgType msg;
  NodeId peer;
  bool operator==(const HomeStep&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HomeStep& s) {
  return os << (s.sent ? "-> " : "<- ") << net::to_string(s.msg) << ' ' << s.peer;
}

/// What `home` sent and received about block `b`, in trace order: network
/// injections at the home and the home controller's receptions.
std::vector<HomeStep> home_steps(const TraceRecorder& rec, NodeId home, mem::BlockAddr b) {
  std::vector<HomeStep> steps;
  for (const obs::TraceEvent& e : rec.events) {
    if (e.node != home || mem::block_of(e.addr) != b) continue;
    if (e.cat == obs::TraceCat::Net && e.kind == obs::EventKind::MsgSend)
      steps.push_back({true, e.msg, e.peer});
    else if (e.cat == obs::TraceCat::Home)
      steps.push_back({false, e.msg, e.peer});
  }
  return steps;
}

/// The steps from the first occurrence of `from` on.
std::vector<HomeStep> steps_from(const std::vector<HomeStep>& steps, HomeStep from) {
  auto it = std::find(steps.begin(), steps.end(), from);
  return {it, steps.end()};
}

TEST(ProtocolRaces, WiForwardNackAndWritebackReplay) {
  // Proc 0 dirties block A, then evicts it via a conflicting load while
  // proc 1's read of A is in flight: depending on the offset, the home
  // forwards to proc 0 before/after the writeback, exercising FwdNack and
  // the waiting_wb replay.
  std::uint64_t nacks = 0;
  for (Cycle offset = 0; offset <= 120; offset += 4) {
    MachineConfig cfg;
    cfg.protocol = Protocol::WI;
    cfg.nprocs = 3;
    cfg.cache_bytes = 512;  // 8 sets
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(2, 8);
    const Addr conflict = a + 8 * mem::kBlockSize;  // same set as a
    std::uint64_t got = 0;
    std::vector<Machine::Program> ps;
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 4242);  // Modified at proc 0
      co_await c.fence();
      (void)co_await c.load(conflict);  // evict dirty A -> writeback
    });
    ps.push_back([&, offset](cpu::Cpu& c) -> sim::Task {
      co_await c.think(80 + offset);
      got = co_await c.load(a);
    });
    ps.push_back([](cpu::Cpu& c) -> sim::Task { co_await c.think(1); });
    m.run(ps);
    EXPECT_EQ(got, 4242u) << "offset " << offset;
    nacks += m.counters().net.of(MsgType::FwdNack);
  }
  EXPECT_GT(nacks, 0u) << "the sweep never hit the forward/writeback race";
}

TEST(ProtocolRaces, WiUpgradeConvertedToGetXUnderContention) {
  // Two procs read-share a block, then both write nearly simultaneously:
  // the loser's Upgrade finds it is no longer a sharer and the home serves
  // data instead. Correctness: the final value is one of the two writes
  // and both writers' fences complete.
  std::uint64_t upgrades = 0, getx = 0;
  for (Cycle offset = 0; offset <= 60; offset += 3) {
    MachineConfig cfg;
    cfg.protocol = Protocol::WI;
    cfg.nprocs = 2;
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(0, 8);
    m.run_all([&, offset](cpu::Cpu& c) -> sim::Task {
      (void)co_await c.load(a);  // both Shared
      co_await c.think(c.id() == 0 ? 50 : 50 + offset % 7);
      co_await c.store(a, 100 + c.id());
      co_await c.fence();
    });
    const std::uint64_t v = m.peek(a);
    EXPECT_TRUE(v == 100 || v == 101) << "offset " << offset;
    upgrades += m.counters().net.of(MsgType::Upgrade);
    getx += m.counters().net.of(MsgType::GetX);
  }
  EXPECT_GT(upgrades, 0u);
  EXPECT_GT(getx, 0u) << "no upgrade was ever converted/raced to a GetX";
}

TEST(ProtocolRaces, PuRecallMeetsEvictedOwner) {
  // Proc 0 holds a block PrivateDirty, then evicts it (writeback in
  // flight) just as proc 1 reads it: the home's Recall can find the owner
  // without the line (RecallReply-absent + waiting_wb replay).
  std::uint64_t recalls = 0;
  for (Cycle offset = 0; offset <= 160; offset += 8) {
    MachineConfig cfg;
    cfg.protocol = Protocol::PU;
    cfg.nprocs = 2;
    cfg.cache_bytes = 512;
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(1, 8);
    const Addr conflict = a + 8 * mem::kBlockSize;
    std::uint64_t got = 0;
    std::vector<Machine::Program> ps;
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 1; i <= 4; ++i) co_await c.store(a, 10 * i);  // -> private
      co_await c.fence();
      (void)co_await c.load(conflict);  // evict the private block
    });
    ps.push_back([&, offset](cpu::Cpu& c) -> sim::Task {
      co_await c.think(100 + offset);
      got = co_await c.load(a);
    });
    m.run(ps);
    EXPECT_EQ(got, 40u) << "offset " << offset;
    recalls += m.counters().net.of(MsgType::Recall);
  }
  EXPECT_GT(recalls, 0u) << "no recall was exercised across the sweep";
}

TEST(ProtocolRaces, PuRecallServesParkedReadsInArrivalOrder) {
  // Node 0 holds block A in private mode; nodes 1, 3 and 2 read it, in
  // that order of arrival at A's home (node 4). Node 1's read recalls A,
  // the other two park behind the recall, and once node 0 gives A back
  // the home answers all three in arrival order.
  MachineConfig cfg;
  cfg.protocol = Protocol::PU;
  cfg.nprocs = 5;
  TraceRecorder rec;
  cfg.obs.sink = &rec;
  Machine m(cfg);
  const NodeId home = 4;
  const Addr a = m.alloc().allocate_on(home, 8);
  std::vector<std::uint64_t> got(4, 0);
  const auto reader = [&](Cycle at) {
    return [&, at](cpu::Cpu& c) -> sim::Task {
      co_await c.think(at);
      got[c.id()] = co_await c.load(a);
    };
  };
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 1; i <= 4; ++i) co_await c.store(a, 10 * i);  // -> private
    co_await c.fence();
  });
  ps.push_back(reader(400));
  ps.push_back(reader(420));
  ps.push_back(reader(404));
  m.run(ps);
  EXPECT_EQ(got[1], 40u);
  EXPECT_EQ(got[2], 40u);
  EXPECT_EQ(got[3], 40u);

  const std::vector<HomeStep> want = {
      {true, MsgType::Recall, 0},       // node 1's read recalls the block
      {false, MsgType::GetS, 3},        // parked
      {false, MsgType::GetS, 2},        // parked
      {false, MsgType::RecallReply, 0},
      {true, MsgType::DataS, 1},
      {true, MsgType::DataS, 3},
      {true, MsgType::DataS, 2},
  };
  EXPECT_EQ(steps_from(home_steps(rec, home, mem::block_of(a)), want.front()), want);
}

TEST(ProtocolRaces, WiForwardServesParkedRequestsInArrivalOrder) {
  // Node 0 holds block A Modified. Node 1's read is forwarded to node 0;
  // a write from node 3 and then a read from node 2 park behind that
  // transaction. When node 0's SharedWB closes it, the home serves node
  // 3's GetX, which holds the block until node 3's ExclDone, and only
  // then node 2's GetS, which it forwards to the new owner.
  MachineConfig cfg;
  cfg.protocol = Protocol::WI;
  cfg.nprocs = 5;
  TraceRecorder rec;
  cfg.obs.sink = &rec;
  Machine m(cfg);
  const NodeId home = 4;
  const Addr a = m.alloc().allocate_on(home, 8);
  std::uint64_t read1 = 0, read2 = 0;
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 7);
    co_await c.fence();
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.think(400);
    read1 = co_await c.load(a);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.think(420);
    read2 = co_await c.load(a);
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.think(404);
    co_await c.store(a, 9);
    co_await c.fence();
  });
  m.run(ps);
  EXPECT_EQ(read1, 7u);
  EXPECT_EQ(read2, 9u);

  const std::vector<HomeStep> want = {
      {true, MsgType::FwdGetS, 0},  // node 1's read, forwarded to the owner
      {false, MsgType::GetX, 3},    // parked
      {false, MsgType::GetS, 2},    // parked
      {false, MsgType::SharedWB, 0},
      {true, MsgType::Inval, 0},
      {true, MsgType::Inval, 1},
      {true, MsgType::DataX, 3},
      {false, MsgType::ExclDone, 3},
      {true, MsgType::FwdGetS, 3},  // node 2's read, forwarded to node 3
      {false, MsgType::SharedWB, 3},
  };
  EXPECT_EQ(steps_from(home_steps(rec, home, mem::block_of(a)), want.front()), want);
}

TEST(ProtocolRaces, UpdateOvertakesDataSHarmlessly) {
  // A reader's GetS is in flight while a writer streams updates: some
  // update lands before the DataS (acked-and-ignored), and the fill must
  // carry the newest value (read-at-send). The reader then spins to the
  // final value.
  for (Cycle offset = 0; offset <= 60; offset += 2) {
    MachineConfig cfg;
    cfg.protocol = Protocol::PU;
    cfg.nprocs = 3;
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(2, 8);
    std::vector<Machine::Program> ps;
    ps.push_back([&, offset](cpu::Cpu& c) -> sim::Task {  // reader
      co_await c.think(offset);
      co_await c.spin_until(a, [](std::uint64_t v) { return v == 20; });
    });
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {  // writer
      for (int k = 1; k <= 20; ++k) {
        co_await c.store(a, static_cast<std::uint64_t>(k));
        co_await c.fence();
      }
    });
    ps.push_back([](cpu::Cpu& c) -> sim::Task { co_await c.think(1); });
    m.run(ps);  // termination proves the reader observed the final value
  }
}

TEST(ProtocolRaces, FillStalledByInTransactionVictim) {
  // Two blocks mapping to the same set: an Upgrade on the resident block
  // is outstanding while a fill for the conflicting block arrives. The
  // fill must wait (MSHR conflict) instead of evicting the transaction's
  // line; both writes must land.
  std::uint64_t hit_window = 0;
  for (Cycle offset = 0; offset <= 80; offset += 4) {
    MachineConfig cfg;
    cfg.protocol = Protocol::WI;
    cfg.nprocs = 3;
    cfg.cache_bytes = 512;
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(2, 8);
    const Addr b = a + 8 * mem::kBlockSize;  // same set
    std::vector<Machine::Program> ps;
    ps.push_back([&, offset](cpu::Cpu& c) -> sim::Task {
      (void)co_await c.load(a);        // Shared
      (void)co_await c.load(b);        // fill b (evicts a)...
      (void)co_await c.load(a);        // ...and re-fetch a: Shared again
      co_await c.think(offset);
      co_await c.store(a, 7);          // Upgrade on a in flight...
      (void)co_await c.load(b);        // ...while b's fill wants the set
      co_await c.fence();
    });
    // A second sharer so the upgrade needs a real invalidation round trip
    // (widening the window where the fill collides with the transaction).
    ps.push_back([&](cpu::Cpu& c) -> sim::Task { (void)co_await c.load(a); });
    ps.push_back([](cpu::Cpu& c) -> sim::Task { co_await c.think(1); });
    m.run(ps);
    EXPECT_EQ(m.peek(a), 7u) << "offset " << offset;
    ++hit_window;
  }
  EXPECT_GT(hit_window, 0u);
}

} // namespace
