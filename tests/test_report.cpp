// print_report formatting.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using namespace ccsim;

TEST(Report, ContainsEverySection) {
  harness::MachineConfig cfg;
  cfg.protocol = proto::Protocol::CU;
  cfg.nprocs = 4;
  harness::Machine m(cfg);
  sync::TicketLock lock(m);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 5; ++i) {
      co_await lock.acquire(c);
      co_await lock.release(c);
    }
  });
  std::ostringstream os;
  stats::print_report(os, m.counters());
  const std::string out = os.str();
  EXPECT_NE(out.find("cache misses"), std::string::npos);
  EXPECT_NE(out.find("update messages"), std::string::npos);
  EXPECT_NE(out.find("network:"), std::string::npos);
  EXPECT_NE(out.find("message profile:"), std::string::npos);
  EXPECT_NE(out.find("memory:"), std::string::npos);
  EXPECT_NE(out.find("AtomicReq="), std::string::npos)
      << "ticket acquires must appear in the profile under CU";
}

TEST(Report, SharingTableNamesAnUnnamedBlockByItsAddress) {
  harness::MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.obs.sharing = true;
  harness::Machine m(cfg);
  const Addr a = m.alloc().allocate_on(1, 8);  // no name
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, c.id());
    (void)co_await c.load(a);
  });
  std::ostringstream os;
  stats::print_sharing(os, m.sharing_report());
  EXPECT_NE(os.str().find("\n  0x10000000 "), std::string::npos) << os.str();
}

TEST(Report, ZeroCountersStillWellFormed) {
  stats::Counters c;
  std::ostringstream os;
  stats::print_report(os, c);
  EXPECT_NE(os.str().find("0 total"), std::string::npos);
}

} // namespace
