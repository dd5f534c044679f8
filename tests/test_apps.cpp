// Application kernels: every kernel's oracle must hold under every
// protocol and several machine sizes and parameterizations.
#include "apps/kernels.hpp"
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace {

using namespace ccsim;
using proto::Protocol;

using Combo = std::tuple<Protocol, unsigned>;

harness::MachineConfig machine(Protocol p, unsigned n) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  return cfg;
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(proto::to_string(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param));
}

class Apps : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, Apps,
    ::testing::Combine(::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    combo_name);

TEST_P(Apps, SorMatchesOracle) {
  const auto& [p, n] = GetParam();
  apps::SorParams params;
  params.sweeps = 12;
  params.cells_per_proc = 10;
  const auto r = apps::run_sor(machine(p, n), params);
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.cycles, 0u);
}

TEST_P(Apps, SorWithCentralBarrier) {
  const auto& [p, n] = GetParam();
  apps::SorParams params;
  params.sweeps = 8;
  params.cells_per_proc = 6;
  params.barrier = harness::BarrierKind::Central;
  EXPECT_TRUE(apps::run_sor(machine(p, n), params).correct);
}

TEST_P(Apps, HistogramExactCounts) {
  const auto& [p, n] = GetParam();
  apps::HistogramParams params;
  params.items_per_proc = 40;
  const auto r = apps::run_histogram(machine(p, n), params);
  EXPECT_TRUE(r.correct);
}

TEST_P(Apps, HistogramWithMcsLocks) {
  const auto& [p, n] = GetParam();
  apps::HistogramParams params;
  params.items_per_proc = 30;
  params.buckets = 4;  // heavier per-lock contention
  params.lock = harness::LockKind::Mcs;
  EXPECT_TRUE(apps::run_histogram(machine(p, n), params).correct);
}

TEST_P(Apps, NbodyParallelReduction) {
  const auto& [p, n] = GetParam();
  apps::NbodyParams params;
  params.steps = 10;
  params.parallel_reduction = true;
  EXPECT_TRUE(apps::run_nbody_step(machine(p, n), params).correct);
}

TEST_P(Apps, NbodySequentialReduction) {
  const auto& [p, n] = GetParam();
  apps::NbodyParams params;
  params.steps = 10;
  params.parallel_reduction = false;
  EXPECT_TRUE(apps::run_nbody_step(machine(p, n), params).correct);
}

TEST_P(Apps, PipelineChecksum) {
  const auto& [p, n] = GetParam();
  apps::PipelineParams params;
  params.items = 60;
  const auto r = apps::run_pipeline(machine(p, n), params);
  EXPECT_TRUE(r.correct);
}

TEST_P(Apps, PipelineTinyQueues) {
  const auto& [p, n] = GetParam();
  apps::PipelineParams params;
  params.items = 40;
  params.queue_slots = 1;  // fully synchronous hand-off
  EXPECT_TRUE(apps::run_pipeline(machine(p, n), params).correct);
}

TEST_P(Apps, MatmulMatchesOracle) {
  const auto& [p, n] = GetParam();
  apps::MatmulParams params;
  params.dim = 8;
  const auto r = apps::run_matmul(machine(p, n), params);
  EXPECT_TRUE(r.correct);
}

TEST_P(Apps, MatmulWithCentralBarrier) {
  const auto& [p, n] = GetParam();
  apps::MatmulParams params;
  params.dim = 6;
  params.barrier = harness::BarrierKind::Central;
  EXPECT_TRUE(apps::run_matmul(machine(p, n), params).correct);
}

TEST(AppsHybrid, KernelsRunOnHybridMachines) {
  // Kernels accept any machine protocol, including Hybrid (all regions
  // unbound, so WI): oracles and the invariant checker must still hold.
  harness::MachineConfig hybrid = machine(Protocol::Hybrid, 4);
  hybrid.obs.check_invariants = true;
  const auto expect_checked = [](const apps::KernelResult& r) {
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.invariant_checks, 0u);
  };
  apps::SorParams sor;
  sor.sweeps = 8;
  sor.cells_per_proc = 6;
  expect_checked(apps::run_sor(hybrid, sor));
  apps::PipelineParams pipe;
  pipe.items = 30;
  expect_checked(apps::run_pipeline(hybrid, pipe));
  apps::MatmulParams mat;
  mat.dim = 6;
  expect_checked(apps::run_matmul(hybrid, mat));
}

TEST(AppsObs, KernelResultCarriesTheProfile) {
  harness::MachineConfig cfg = machine(Protocol::WI, 4);
  cfg.obs.profile = true;
  apps::SorParams params;
  params.sweeps = 4;
  params.cells_per_proc = 6;
  const auto r = apps::run_sor(cfg, params);
  ASSERT_TRUE(r.correct);
  EXPECT_TRUE(r.profile.enabled());
  EXPECT_TRUE(r.profile.conserved());
  EXPECT_EQ(r.profile.wall, r.cycles);
}

TEST(AppsConfig, KernelsRunOnTheConfigTheyAreGiven) {
  // Fields beyond protocol and size reach the kernel's machine: sequential
  // consistency stalls every store and full link contention delays
  // messages, and the oracle still holds under both.
  apps::SorParams params;
  params.sweeps = 6;
  const auto base = apps::run_sor(machine(Protocol::PU, 8), params);
  harness::MachineConfig sc = machine(Protocol::PU, 8);
  sc.consistency = proto::Consistency::Sequential;
  const auto seq = apps::run_sor(sc, params);
  harness::MachineConfig link = machine(Protocol::PU, 8);
  link.net.link_contention = true;
  const auto linked = apps::run_sor(link, params);
  ASSERT_TRUE(base.correct);
  EXPECT_TRUE(seq.correct);
  EXPECT_TRUE(linked.correct);
  EXPECT_GT(seq.cycles, base.cycles);
  EXPECT_NE(linked.cycles, base.cycles);
}

TEST(AppsTraffic, PipelineUpdatesAreUseful) {
  // Producer/consumer flag traffic is the best case for update protocols:
  // most updates land exactly where the consumer spins.
  const auto r =
      apps::run_pipeline(machine(Protocol::PU, 6), {.items = 80, .queue_slots = 4});
  ASSERT_TRUE(r.correct);
  EXPECT_GT(r.counters.updates.useful() * 3, r.counters.updates.total() * 2)
      << "expected >= ~2/3 useful updates in the pipeline";
}

TEST(AppsTraffic, SorUpdateBarrierBeatsWi) {
  apps::SorParams params;
  params.sweeps = 16;
  const auto wi = apps::run_sor(machine(Protocol::WI, 8), params);
  const auto pu = apps::run_sor(machine(Protocol::PU, 8), params);
  ASSERT_TRUE(wi.correct);
  ASSERT_TRUE(pu.correct);
  EXPECT_LT(pu.cycles, wi.cycles)
      << "halo exchange + dissemination barrier should favor updates";
}

} // namespace
