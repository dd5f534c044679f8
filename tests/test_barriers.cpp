// Barrier correctness across protocols and machine sizes: separation
// (nobody exits episode e before everyone entered it), repeated episodes
// with sense reversal, odd processor counts, and traffic expectations.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

namespace {

using namespace ccsim;
using harness::BarrierKind;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

using Combo = std::tuple<Protocol, BarrierKind, unsigned>;

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const Protocol p = std::get<0>(info.param);
  const BarrierKind k = std::get<1>(info.param);
  const unsigned n = std::get<2>(info.param);
  std::string name = std::string(proto::to_string(p)) + "_";
  name += (k == BarrierKind::Central         ? "cb"
           : k == BarrierKind::Dissemination ? "db"
           : k == BarrierKind::Tree          ? "tb"
                                             : "ct");
  name += "_" + std::to_string(n);
  return name;
}

class BarrierCorrectness : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BarrierCorrectness,
    ::testing::Combine(::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                       ::testing::Values(BarrierKind::Central,
                                         BarrierKind::Dissemination,
                                         BarrierKind::Tree,
                                         BarrierKind::CombiningTree),
                       ::testing::Values(1u, 2u, 5u, 8u, 16u)),
    combo_name);

TEST_P(BarrierCorrectness, SeparationAcrossEpisodes) {
  const auto& [p, k, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  auto barrier = harness::make_barrier(m, k);

  const int episodes = 30;
  std::vector<int> arrived(n, 0);   // episodes entered per proc
  std::vector<int> departed(n, 0);  // episodes exited per proc

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int e = 0; e < episodes; ++e) {
      arrived[c.id()] = e + 1;
      // Unbalanced work before the barrier stresses the separation.
      co_await c.think(1 + (c.id() * 7 + e * 13) % 50);
      co_await barrier->wait(c);
      departed[c.id()] = e + 1;
      // Separation: when I exit episode e, everyone has entered it.
      for (unsigned q = 0; q < n; ++q) {
        EXPECT_GE(arrived[q], e + 1) << "proc " << q << " had not entered episode "
                                     << e << " when proc " << c.id() << " left it";
      }
    }
  });
  for (unsigned q = 0; q < n; ++q) EXPECT_EQ(departed[q], episodes);
}

TEST_P(BarrierCorrectness, BackToBackEpisodesDoNotInterfere) {
  const auto& [p, k, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  auto barrier = harness::make_barrier(m, k);
  // Tight loop with zero work: exercises sense reversal / parity flipping.
  const int episodes = 40;
  std::vector<std::uint64_t> done(n, 0);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int e = 0; e < episodes; ++e) {
      co_await barrier->wait(c);
      ++done[c.id()];
    }
  });
  for (unsigned q = 0; q < n; ++q) EXPECT_EQ(done[q], static_cast<unsigned>(episodes));
}

TEST(DisseminationBarrier, UpdateProtocolsGenerateNoUselessUpdates) {
  // Paper section 4.2: the dissemination barrier's update traffic under
  // PU/CU is essentially all useful (each flag write updates exactly the
  // one spinner that needs it).
  for (Protocol p : {Protocol::PU, Protocol::CU}) {
    MachineConfig cfg;
    cfg.protocol = p;
    cfg.nprocs = 8;
    Machine m(cfg);
    sync::DisseminationBarrier barrier(m);
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int e = 0; e < 50; ++e) co_await barrier.wait(c);
    });
    const auto& u = m.counters().updates;
    EXPECT_GT(u.useful(), 0u);
    // Allow a tiny tail of unconsumed end-of-run updates.
    EXPECT_LE(u.useless(), u.total() / 10)
        << "dissemination barrier should be nearly all useful updates under "
        << proto::to_string(p);
  }
}

TEST(CentralBarrier, UpdateProtocolsGenerateMostlyUselessUpdates) {
  // Paper section 4.2: the centralized barrier's counter updates are
  // mostly useless under update protocols.
  MachineConfig cfg;
  cfg.protocol = Protocol::PU;
  cfg.nprocs = 8;
  Machine m(cfg);
  sync::CentralBarrier barrier(m);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int e = 0; e < 50; ++e) co_await barrier.wait(c);
  });
  const auto& u = m.counters().updates;
  EXPECT_GT(u.total(), 0u);
  EXPECT_GT(u.useless(), u.useful());
}

TEST(CombiningTreeBarrier, BeatsGlobalSenseTreeUnderUpdates) {
  // The extension claim (abl_barrier_algos): replacing figure 5's global
  // sense flag with a binary wakeup tree of per-processor flags wins under
  // every protocol at 32 procs (at smaller sizes the global flag's storm
  // is not yet the bottleneck).
  for (Protocol p : {Protocol::WI, Protocol::PU}) {
    Cycle tree = 0, ctree = 0;
    for (bool combining : {false, true}) {
      MachineConfig cfg;
      cfg.protocol = p;
      cfg.nprocs = 32;
      Machine m(cfg);
      std::unique_ptr<sync::Barrier> b;
      if (combining)
        b = std::make_unique<sync::CombiningTreeBarrier>(m);
      else
        b = std::make_unique<sync::TreeBarrier>(m);
      const Cycle t = m.run_all([&](cpu::Cpu& c) -> sim::Task {
        for (int e = 0; e < 60; ++e) co_await b->wait(c);
      });
      (combining ? ctree : tree) = t;
    }
    EXPECT_LT(ctree, tree) << proto::to_string(p);
  }
}

TEST(TreeBarrier, ShapeMatchesMcsArityFour) {
  MachineConfig cfg;
  cfg.protocol = Protocol::WI;
  cfg.nprocs = 9;  // root 0 with children 1..4; node 1 with children 5..8
  Machine m(cfg);
  sync::TreeBarrier barrier(m);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int e = 0; e < 5; ++e) co_await barrier.wait(c);
  });
  // After an even number of... 5 episodes: globalsense ends at the 5th
  // toggle value (1,0,1,0,1) = 1.
  EXPECT_EQ(m.peek(barrier.globalsense_addr()), 1u);
}

} // namespace
