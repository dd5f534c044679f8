// Reduction correctness: both strategies compute the true global maximum
// every round, under every protocol, with real locks/barriers and with the
// zero-traffic magic ones; plus the paper's traffic expectations.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

using Combo = std::tuple<Protocol, unsigned>;

class ReductionCorrectness : public ::testing::TestWithParam<Combo> {};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(proto::to_string(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionCorrectness,
    ::testing::Combine(::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                       ::testing::Values(1u, 2u, 7u, 8u)),
    combo_name);

TEST_P(ReductionCorrectness, ParallelWithMagicSync) {
  const auto& [p, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  const auto r = harness::run_reduction_experiment(
      cfg, harness::ReductionKind::Parallel,
      {.rounds = 40, .imbalance_max = 0, .seed = 7});
  EXPECT_GT(r.cycles, 0u);
}

TEST_P(ReductionCorrectness, SequentialWithMagicSync) {
  const auto& [p, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  const auto r = harness::run_reduction_experiment(
      cfg, harness::ReductionKind::Sequential,
      {.rounds = 40, .imbalance_max = 0, .seed = 7});
  EXPECT_GT(r.cycles, 0u);
}

TEST_P(ReductionCorrectness, ParallelWithRealTicketLockAndCentralBarrier) {
  const auto& [p, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  sync::TicketLock lock(m);
  sync::CentralBarrier barrier(m);
  sync::ParallelReduction red(m, lock, barrier);

  const int rounds = 12;
  const auto value = [n = n](int round, NodeId pid) {
    return ((static_cast<std::uint64_t>(round) + 1) << 16) |
           ((pid * 2654435761u + round * 40503u) & 0xffffu);
  };
  std::vector<std::uint64_t> oracle(rounds, 0);
  for (int r = 0; r < rounds; ++r)
    for (NodeId q = 0; q < n; ++q) oracle[r] = std::max(oracle[r], value(r, q));

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int r = 0; r < rounds; ++r) {
      std::uint64_t result = 0;
      co_await red.reduce(c, value(r, c.id()), &result);
      if (result != oracle[r]) throw std::logic_error("wrong reduction result");
    }
  });
  EXPECT_EQ(m.peek(red.max_addr()), oracle[rounds - 1]);
}

TEST_P(ReductionCorrectness, SequentialWithRealTreeBarrier) {
  const auto& [p, n] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  sync::TreeBarrier barrier(m);
  sync::SequentialReduction red(m, barrier);

  const int rounds = 12;
  const auto value = [n = n](int round, NodeId pid) {
    return ((static_cast<std::uint64_t>(round) + 1) << 16) |
           ((pid * 40503u + round * 2654435761u) & 0xffffu);
  };
  std::vector<std::uint64_t> oracle(rounds, 0);
  for (int r = 0; r < rounds; ++r)
    for (NodeId q = 0; q < n; ++q) oracle[r] = std::max(oracle[r], value(r, q));

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int r = 0; r < rounds; ++r) {
      std::uint64_t result = 0;
      co_await red.reduce(c, value(r, c.id()), &result);
      if (result != oracle[r]) throw std::logic_error("wrong reduction result");
    }
  });
  EXPECT_EQ(m.peek(red.max_addr()), oracle[rounds - 1]);
}

TEST(Reductions, UpdateProtocolReductionsAreLargelyUseful) {
  // Paper section 4.3 / figure 16: both reduction flavors show a large
  // fraction of useful updates under update-based protocols.
  for (auto kind : {harness::ReductionKind::Parallel, harness::ReductionKind::Sequential}) {
    MachineConfig cfg;
    cfg.protocol = Protocol::PU;
    cfg.nprocs = 8;
    const auto r = harness::run_reduction_experiment(cfg, kind, {.rounds = 60});
    const auto& u = r.counters.updates;
    ASSERT_GT(u.total(), 0u);
    EXPECT_GT(u.useful() * 2, u.total())
        << "expected >=50% useful updates for " << to_string(kind);
  }
}

TEST(Reductions, SequentialBeatsParallelUnderPU_TightSync) {
  // Paper figure 14: with tightly synchronized processes, the sequential
  // reduction outperforms the parallel one under update-based protocols.
  MachineConfig cfg;
  cfg.protocol = Protocol::PU;
  cfg.nprocs = 16;
  const auto par = harness::run_reduction_experiment(
      cfg, harness::ReductionKind::Parallel, {.rounds = 60});
  MachineConfig cfg2 = cfg;
  const auto seq = harness::run_reduction_experiment(
      cfg2, harness::ReductionKind::Sequential, {.rounds = 60});
  EXPECT_LT(seq.avg_latency, par.avg_latency);
}

TEST(Reductions, ParallelBeatsSequentialUnderWI_TightSync) {
  // Paper figure 14: under WI the parallel reduction wins.
  MachineConfig cfg;
  cfg.protocol = Protocol::WI;
  cfg.nprocs = 16;
  const auto par = harness::run_reduction_experiment(
      cfg, harness::ReductionKind::Parallel, {.rounds = 60});
  MachineConfig cfg2 = cfg;
  const auto seq = harness::run_reduction_experiment(
      cfg2, harness::ReductionKind::Sequential, {.rounds = 60});
  EXPECT_LT(par.avg_latency, seq.avg_latency);
}

} // namespace
