// Workload-harness tests: metrics arithmetic, all kind/protocol combos run
// to completion, and the experiment variants behave sanely.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace {

using namespace ccsim;
using harness::BarrierKind;
using harness::LockKind;
using harness::MachineConfig;
using harness::ReductionKind;
using proto::Protocol;

MachineConfig cfg_of(Protocol p, unsigned n) {
  MachineConfig c;
  c.protocol = p;
  c.nprocs = n;
  return c;
}

TEST(LockWorkload, LatencyMetricMatchesDefinition) {
  const auto r = harness::run_lock_experiment(cfg_of(Protocol::WI, 4),
                                              LockKind::Ticket,
                                              {.total_acquires = 400});
  // avg = cycles/acquires - hold (figure 8's definition).
  EXPECT_NEAR(r.avg_latency,
              static_cast<double>(r.cycles) / 400.0 - 50.0, 1e-9);
  EXPECT_GT(r.avg_latency, 0.0);
}

TEST(LockWorkload, AllCombosComplete) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    for (LockKind k : {LockKind::Ticket, LockKind::Mcs, LockKind::UcMcs}) {
      const auto r = harness::run_lock_experiment(cfg_of(p, 8), k,
                                                  {.total_acquires = 160});
      EXPECT_GT(r.cycles, 0u) << proto::to_string(p) << "/" << to_string(k);
    }
  }
}

std::string histogram_json(const stats::LatencyHistogram& h) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  stats::histogram_to_json(w, h);
  return os.str();
}

TEST(LockWorkload, FactoryOverloadRunsTheSameLoop) {
  // A factory building the ticket lock is the LockKind::Ticket experiment.
  for (Protocol p : {Protocol::WI, Protocol::CU}) {
    const harness::LockParams params{.total_acquires = 400};
    const auto kind =
        harness::run_lock_experiment(cfg_of(p, 4), LockKind::Ticket, params);
    const auto made = harness::run_lock_experiment(
        cfg_of(p, 4),
        [](harness::Machine& m) { return std::make_unique<sync::TicketLock>(m); },
        params);
    EXPECT_EQ(made.cycles, kind.cycles);
    EXPECT_DOUBLE_EQ(made.avg_latency, kind.avg_latency);
    EXPECT_EQ(stats::to_json(made.counters), stats::to_json(kind.counters));
    EXPECT_EQ(made.latency.count(), 400u);
    EXPECT_EQ(histogram_json(made.latency), histogram_json(kind.latency));
  }
}

/// Acquire and release return at once: two holders can share the section.
class NoLock final : public sync::Lock {
public:
  sim::Task acquire(cpu::Cpu&) override { co_return; }
  sim::Task release(cpu::Cpu&) override { co_return; }
};

TEST(LockWorkload, FactoryLocksKeepTheMutualExclusionCheck) {
  const harness::LockParams params{.total_acquires = 200};
  const auto tas = harness::run_lock_experiment(
      cfg_of(Protocol::PU, 4),
      [](harness::Machine& m) { return std::make_unique<sync::TasLock>(m); }, params);
  EXPECT_GT(tas.cycles, 0u);
  EXPECT_EQ(tas.latency.count(), 200u);
  // The same loop rejects a lock that admits two holders.
  try {
    (void)harness::run_lock_experiment(
        cfg_of(Protocol::PU, 4),
        [](harness::Machine&) { return std::make_unique<NoLock>(); }, params);
    ADD_FAILURE() << "a lock without exclusion ran to completion";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mutual exclusion"), std::string::npos)
        << e.what();
  }
}

TEST(LockWorkload, RandomPauseVariantRunsLonger) {
  const harness::LockParams tight{.total_acquires = 320};
  harness::LockParams paused{.total_acquires = 320};
  paused.random_pause_max = 400;
  const auto t = harness::run_lock_experiment(cfg_of(Protocol::WI, 4),
                                              LockKind::Ticket, tight);
  const auto q = harness::run_lock_experiment(cfg_of(Protocol::WI, 4),
                                              LockKind::Ticket, paused);
  EXPECT_GT(q.cycles, t.cycles);
}

TEST(LockWorkload, WorkRatioVariantReducesContention) {
  harness::LockParams ratio{.total_acquires = 320};
  ratio.work_ratio = 8;  // work outside ~= P * work inside
  const auto r = harness::run_lock_experiment(cfg_of(Protocol::WI, 8),
                                              LockKind::Mcs, ratio);
  EXPECT_GT(r.cycles, 320u / 8 * (50 + 400));
}

TEST(BarrierWorkload, LatencyIsPerEpisode) {
  const auto r = harness::run_barrier_experiment(cfg_of(Protocol::PU, 4),
                                                 BarrierKind::Dissemination,
                                                 {.episodes = 100});
  EXPECT_NEAR(r.avg_latency, static_cast<double>(r.cycles) / 100.0, 1e-9);
}

TEST(BarrierWorkload, AllCombosComplete) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    for (BarrierKind k :
         {BarrierKind::Central, BarrierKind::Dissemination, BarrierKind::Tree}) {
      const auto r =
          harness::run_barrier_experiment(cfg_of(p, 8), k, {.episodes = 40});
      EXPECT_GT(r.cycles, 0u) << proto::to_string(p) << "/" << to_string(k);
    }
  }
}

TEST(ReductionWorkload, ImbalanceVariantRunsAndVerifies) {
  for (ReductionKind k : {ReductionKind::Parallel, ReductionKind::Sequential}) {
    const auto r = harness::run_reduction_experiment(
        cfg_of(Protocol::CU, 8), k,
        {.rounds = 30, .imbalance_max = 500, .seed = 3});
    EXPECT_GT(r.cycles, 0u);
  }
}

TEST(ReductionWorkload, MagicSyncMeansNoLockTraffic) {
  // The reduction harness uses zero-traffic sync; with the parallel
  // reduction's shared max being the only shared data, traffic stays tiny.
  const auto r = harness::run_reduction_experiment(
      cfg_of(Protocol::WI, 8), ReductionKind::Parallel, {.rounds = 50});
  EXPECT_LT(r.counters.misses.total(), 300u);
}

TEST(Names, ToStringCoverage) {
  EXPECT_EQ(to_string(LockKind::Ticket), "ticket");
  EXPECT_EQ(to_string(LockKind::Mcs), "MCS");
  EXPECT_EQ(to_string(LockKind::UcMcs), "uc-MCS");
  EXPECT_EQ(to_string(BarrierKind::Central), "central");
  EXPECT_EQ(to_string(BarrierKind::Dissemination), "dissem");
  EXPECT_EQ(to_string(BarrierKind::Tree), "tree");
  EXPECT_EQ(to_string(ReductionKind::Parallel), "parallel");
  EXPECT_EQ(to_string(ReductionKind::Sequential), "sequential");
  EXPECT_EQ(proto::to_string(Protocol::WI), "WI");
  EXPECT_EQ(proto::to_string(Protocol::PU), "PU");
  EXPECT_EQ(proto::to_string(Protocol::CU), "CU");
}

} // namespace
