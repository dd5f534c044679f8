// Sweep-engine tests: deterministic parallel execution (per-cell JSON
// byte-identical between jobs=8 and jobs=1 across protocol x construct x
// seed -- ISSUE acceptance criterion), submission-order results, failure
// containment (a throwing job becomes a failed cell, the sweep survives),
// and the shared-sink rejection contract.
#include "harness/sweep.hpp"

#include "harness/obs_session.hpp"
#include "obs/jsonl_sink.hpp"
#include "stats/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace {

using namespace ccsim;
using harness::ConstructFamily;
using harness::SweepJob;
using harness::SweepOptions;
using harness::SweepResult;

harness::MachineConfig small_machine(proto::Protocol p, bool profile = false) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = 4;
  cfg.obs.profile = profile;
  return cfg;
}

/// The ISSUE's determinism grid: WI/PU/CU x lock/barrier/reduction x two
/// workload seeds (barriers take no seed; they appear once per protocol,
/// keeping the grid the full construct cross product).
std::vector<SweepJob> determinism_grid(bool profile = false) {
  std::vector<SweepJob> jobs;
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    for (std::uint64_t seed : {0x5eedULL, 0x1234ULL}) {
      SweepJob lock;
      lock.name = "lock/" + std::string(proto::to_string(p)) + "/s" +
                  std::to_string(seed);
      lock.machine = small_machine(p, profile);
      lock.family = ConstructFamily::Lock;
      lock.lock = harness::LockKind::Mcs;
      lock.lock_params.total_acquires = 200;
      lock.lock_params.random_pause_max = 40;  // makes the seed matter
      lock.lock_params.seed = seed;
      jobs.push_back(std::move(lock));

      SweepJob red;
      red.name = "reduction/" + std::string(proto::to_string(p)) + "/s" +
                 std::to_string(seed);
      red.machine = small_machine(p, profile);
      red.family = ConstructFamily::Reduction;
      red.reduction = harness::ReductionKind::Parallel;
      red.reduction_params.rounds = 50;
      red.reduction_params.seed = seed;
      jobs.push_back(std::move(red));
    }
    SweepJob bar;
    bar.name = "barrier/" + std::string(proto::to_string(p));
    bar.machine = small_machine(p, profile);
    bar.family = ConstructFamily::Barrier;
    bar.barrier = harness::BarrierKind::Dissemination;
    bar.barrier_params.episodes = 50;
    jobs.push_back(std::move(bar));
  }
  return jobs;
}

/// Serialize one cell the way ccsweep does: the shared run-object schema.
std::string cell_json(const SweepResult& r) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  harness::write_cell_json(w, r);
  return os.str();
}

TEST(Sweep, ParallelRunIsByteIdenticalToSequential) {
  const auto jobs = determinism_grid();
  SweepOptions seq;
  seq.jobs = 1;
  SweepOptions par;
  par.jobs = 8;
  const auto a = harness::run_sweep(jobs, seq);
  const auto b = harness::run_sweep(jobs, par);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].name << ": " << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].name << ": " << b[i].error;
    EXPECT_EQ(cell_json(a[i]), cell_json(b[i])) << jobs[i].name;
  }
}

TEST(Sweep, ProfiledParallelRunIsByteIdenticalToSequential) {
  // Per-machine observability (the cycle-accounting profiler) is safe
  // under parallel execution and must not perturb determinism.
  const auto jobs = determinism_grid(/*profile=*/true);
  SweepOptions par;
  par.jobs = 8;
  const auto a = harness::run_sweep(jobs, SweepOptions{});
  const auto b = harness::run_sweep(jobs, par);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].ok && b[i].ok) << jobs[i].name;
    ASSERT_TRUE(a[i].run.profile.enabled());
    EXPECT_EQ(cell_json(a[i]), cell_json(b[i])) << jobs[i].name;
  }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder) {
  const auto jobs = determinism_grid();
  SweepOptions par;
  par.jobs = 8;
  const auto results = harness::run_sweep(jobs, par);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(results[i].name, jobs[i].name);
}

TEST(Sweep, ThrowingJobBecomesFailedCellWithoutAbortingTheSweep) {
  auto jobs = determinism_grid();
  // Force one mid-sweep cell over its max_cycles budget: Machine::run
  // throws, and the sweep must contain it.
  const std::size_t victim = jobs.size() / 2;
  jobs[victim].machine.max_cycles = 10;
  SweepOptions par;
  par.jobs = 8;
  const auto results = harness::run_sweep(jobs, par);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == victim) {
      EXPECT_FALSE(results[i].ok);
      EXPECT_FALSE(results[i].error.empty());
      // Outliving max_cycles is classified as a budget stop.
      EXPECT_EQ(results[i].fail, SweepResult::FailKind::Budget);
    } else {
      EXPECT_TRUE(results[i].ok) << results[i].name << ": " << results[i].error;
    }
  }
}

TEST(Sweep, FailedCellsAreContainedSequentiallyToo) {
  auto jobs = determinism_grid();
  jobs[0].machine.max_cycles = 10;
  const auto results = harness::run_sweep(jobs, SweepOptions{});
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].fail, SweepResult::FailKind::Budget);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok) << results[i].name;
    EXPECT_EQ(results[i].fail, SweepResult::FailKind::None);
  }
}

TEST(Sweep, CustomRunnerOverridesFamilyDispatch) {
  SweepJob j;
  j.name = "custom";
  j.runner = [](const harness::MachineConfig&) {
    harness::RunResult r;
    r.cycles = 1234;
    return r;
  };
  const SweepResult r = harness::run_sweep_job(j);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.run.cycles, 1234u);
}

TEST(Sweep, SharedTraceSinkIsRejectedWhenParallel) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  auto jobs = determinism_grid();
  jobs[1].machine.obs.sink = &sink;
  SweepOptions par;
  par.jobs = 4;
  EXPECT_THROW((void)harness::run_sweep(jobs, par), std::invalid_argument);
  // Sequential execution with a sink stays allowed.
  const auto results = harness::run_sweep(jobs, SweepOptions{});
  EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(Sweep, ZeroJobsMeansHardwareConcurrency) {
  const auto jobs = determinism_grid();
  SweepOptions all;
  all.jobs = 0;
  const auto a = harness::run_sweep(jobs, SweepOptions{});
  const auto b = harness::run_sweep(jobs, all);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(cell_json(a[i]), cell_json(b[i]));
}

TEST(Sweep, EmptyJobListIsFine) {
  const auto results = harness::run_sweep({}, SweepOptions{});
  EXPECT_TRUE(results.empty());
}

/// grid_jobs with a name function that records every cell it is handed.
std::vector<SweepJob> expand(const harness::Grid& g,
                             std::vector<harness::GridCell>& cells) {
  return harness::grid_jobs(g, [&cells](const harness::GridCell& c) {
    cells.push_back(c);
    return std::to_string(cells.size());
  });
}

TEST(Grid, DefaultOrderIsProtocolThenProcsThenFamilyThenKind) {
  harness::Grid g;
  g.procs = {4, 8};
  std::vector<harness::GridCell> cells;
  const auto jobs = expand(g, cells);
  // 3 protocols x 2 sizes x (3 locks + 3 barriers + 2 reductions).
  ASSERT_EQ(jobs.size(), 48u);
  ASSERT_EQ(cells.size(), jobs.size());
  const std::vector<std::string> first{"tk", "MCS", "uc", "cb", "db",
                                       "tb", "sr", "pr"};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(cells[i].protocol, g.protocols[i / 16]);
    EXPECT_EQ(cells[i].procs, g.procs[i / 8 % 2]);
    EXPECT_EQ(cells[i].tag(), first[i % 8]);
    EXPECT_EQ(jobs[i].name, std::to_string(i + 1));
  }
  EXPECT_EQ(cells[0].kind(), "ticket");
  EXPECT_EQ(cells[3].kind(), "central");
}

TEST(Grid, CuThresholdsMultiplyOnlyCuCells) {
  harness::Grid g;
  g.cu_thresholds = {2, 8};
  std::vector<harness::GridCell> cells;
  const auto jobs = expand(g, cells);
  ASSERT_EQ(jobs.size(), 8u + 8u + 2u * 8u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bool cu = cells[i].protocol == proto::Protocol::CU;
    EXPECT_EQ(cells[i].cu_threshold.has_value(), cu) << i;
    if (cu) {
      EXPECT_EQ(jobs[i].machine.cu_threshold, *cells[i].cu_threshold);
    }
  }
  EXPECT_EQ(*cells[16].cu_threshold, 2u);
  EXPECT_EQ(*cells[24].cu_threshold, 8u);
}

TEST(Grid, SeedsMultiplyOnlyLockAndReductionCells) {
  harness::Grid g;
  g.protocols = {proto::Protocol::PU};
  g.seeds = {7, 9};
  std::vector<harness::GridCell> cells;
  const auto jobs = expand(g, cells);
  ASSERT_EQ(jobs.size(), 3u * 2u + 3u + 2u * 2u);
  std::size_t seeded = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cells[i].family == ConstructFamily::Barrier) {
      EXPECT_FALSE(cells[i].seed.has_value());
      continue;
    }
    ASSERT_TRUE(cells[i].seed.has_value());
    EXPECT_EQ(*cells[i].seed, seeded++ % 2 == 0 ? 7u : 9u);
    const std::uint64_t seed = cells[i].family == ConstructFamily::Lock
                                   ? jobs[i].lock_params.seed
                                   : jobs[i].reduction_params.seed;
    EXPECT_EQ(seed, *cells[i].seed);
  }
}

TEST(Grid, JobsCarryTheCellCoordinatesAndTheBaseMachine) {
  harness::Grid g;
  g.protocols = {proto::Protocol::CU};
  g.families = {ConstructFamily::Reduction, ConstructFamily::Lock};
  g.locks = {harness::LockKind::UcMcs};
  g.reductions = {harness::ReductionKind::Parallel};
  g.procs = {64};
  g.scale = 0.5;
  g.machine.obs.profile = true;
  std::vector<harness::GridCell> cells;
  const auto jobs = expand(g, cells);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(cells[0].family, ConstructFamily::Reduction);
  EXPECT_EQ(cells[0].reduction, harness::ReductionKind::Parallel);
  EXPECT_EQ(cells[1].lock, harness::LockKind::UcMcs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].family, cells[i].family);
    EXPECT_EQ(jobs[i].machine.protocol, proto::Protocol::CU);
    EXPECT_EQ(jobs[i].machine.nprocs, 64u);
    EXPECT_TRUE(jobs[i].machine.obs.profile);
  }
  EXPECT_EQ(jobs[0].reduction, harness::ReductionKind::Parallel);
  EXPECT_EQ(jobs[0].reduction_params.rounds, 2500u);
  EXPECT_EQ(jobs[1].lock, harness::LockKind::UcMcs);
  EXPECT_EQ(jobs[1].lock_params.total_acquires, 16000u);
}

} // namespace
