// Structured trace facility: the record ring and its formatted tail,
// machine integration, and deadlock reports carrying the trace tail.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace ccsim;
using harness::DeadlockError;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

obs::TraceEvent recv(Cycle t, std::uint64_t payload = 0) {
  net::Message m;
  m.type = net::MsgType::GetS;
  m.src = 1;
  m.addr = 0x10000040;
  m.payload = payload;
  return obs::recv_event(obs::TraceCat::Cache, t, 3, m);
}

TEST(TraceLog, RecordsAndFormats) {
  obs::TraceLog t;
  t.event(recv(42));
  EXPECT_EQ(t.tail(1), "t=42 [cache] cache3 <- GetS addr=0x10000040 from 1\n");
  t.event(recv(43, 7));
  EXPECT_EQ(t.tail(1), "t=43 [cache] cache3 <- GetS addr=0x10000040 from 1 pay=7\n");
}

TEST(TraceLog, RingBounded) {
  obs::TraceLog t;
  constexpr std::size_t kPushed = obs::TraceLog::kRing + 88;
  for (std::size_t i = 0; i < kPushed; ++i) t.event(recv(i));
  std::istringstream lines(t.tail(kPushed));
  std::vector<std::string> kept;
  for (std::string line; std::getline(lines, line);) kept.push_back(line);
  ASSERT_EQ(kept.size(), obs::TraceLog::kRing);
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].rfind("t=" + std::to_string(88 + i) + " ", 0), 0u) << kept[i];
}

TEST(TraceLog, TailJoinsLastN) {
  obs::TraceLog t;
  for (Cycle i = 0; i < 5; ++i) t.event(recv(i));
  EXPECT_EQ(t.tail(2),
            "t=3 [cache] cache3 <- GetS addr=0x10000040 from 1\n"
            "t=4 [cache] cache3 <- GetS addr=0x10000040 from 1\n");
  EXPECT_EQ(t.tail(100), t.tail(5));
  EXPECT_EQ(obs::TraceLog().tail(3), "");
}

TEST(TraceMachine, DisabledByDefault) {
  Machine m(MachineConfig{});
  EXPECT_EQ(m.trace(), nullptr);
}

TEST(TraceMachine, CapturesProtocolEvents) {
  for (Protocol p : {Protocol::WI, Protocol::PU}) {
    MachineConfig cfg;
    cfg.protocol = p;
    cfg.nprocs = 2;
    std::ostringstream text;
    obs::TextSink sink(text);  // a sink switches on the trace log
    cfg.obs.sink = &sink;
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(1, 8);
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 1);
      co_await c.fence();
      (void)co_await c.load(a);
    }});
    ASSERT_NE(m.trace(), nullptr);
    // Both sides of the protocol show up.
    const std::string all = m.trace()->tail(1000);
    EXPECT_NE(all.find("home1 <-"), std::string::npos) << proto::to_string(p);
    EXPECT_NE(all.find("cache0 <-"), std::string::npos) << proto::to_string(p);
  }
}

TEST(TraceMachine, DeadlockReportIncludesTraceAndStuckProcs) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  std::ostringstream text;
  obs::TextSink sink(text);
  cfg.obs.sink = &sink;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    // Waits forever: nobody ever writes 1.
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  ps.push_back([](cpu::Cpu& c) -> sim::Task { co_await c.think(10); });
  try {
    m.run(ps);
    FAIL() << "expected a deadlock";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drained with programs waiting"), std::string::npos);
    EXPECT_NE(msg.find("stuck processors: 0"), std::string::npos);
    EXPECT_NE(msg.find("last trace events"), std::string::npos);
    EXPECT_NE(msg.find("GetS"), std::string::npos) << "spin's fetch should be traced";
  }
}

} // namespace
