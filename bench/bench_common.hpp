// Shared scaffolding for the figure-reproduction benches.
//
// Every bench prints one or more tables, and every table is a list of rows:
// a label plus the SweepJobs ("cells") whose results fill the row's
// columns. run_rows runs one table's cells as one sweep through run_cells
// and prints the table, so every cell of every bench runs, fails and is
// observed the same way.
#pragma once

#include "ccsim.hpp"
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"

#include <cstdio>
#include <functional>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccbench {

using namespace ccsim;

/// The protocols the figure benches sweep. Protocol::Hybrid is
/// deliberately excluded: a hybrid machine is meaningless without
/// per-region Machine::bind_protocol calls choosing a protocol for each
/// allocation, and the generic figure workloads make none (every region
/// would silently run WI, duplicating the WI column under a misleading
/// label). The dedicated abl_hybrid bench, which binds each construct's
/// memory to its best protocol, is the one place hybrid machines are
/// measured; series_label still handles Hybrid ("/h") for that bench's
/// tables.
inline constexpr proto::Protocol kProtocols[] = {proto::Protocol::WI,
                                                 proto::Protocol::PU,
                                                 proto::Protocol::CU};

/// The paper's barriers (figures 11-13) and reductions (figures 14-16),
/// in its bar order.
inline constexpr harness::BarrierKind kPaperBarriers[] = {
    harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
    harness::BarrierKind::Tree};
inline constexpr harness::ReductionKind kPaperReductions[] = {
    harness::ReductionKind::Sequential, harness::ReductionKind::Parallel};

/// "tk/i" style series label, matching the paper's bar labels ("tk", "MCS",
/// "uc" x "i", "u", "c"); "h" = hybrid (abl_hybrid only, see kProtocols).
inline std::string series_label(std::string_view algo, proto::Protocol p) {
  std::string s{algo};
  s += '/';
  switch (p) {
    case proto::Protocol::WI: s += 'i'; break;
    case proto::Protocol::PU: s += 'u'; break;
    case proto::Protocol::CU: s += 'c'; break;
    case proto::Protocol::Hybrid: s += 'h'; break;
  }
  return s;
}

/// A cell named `name` on a `proto` machine of `nprocs` nodes, with the
/// paper's iteration counts (32000 acquires, 5000 episodes or rounds)
/// scaled by --scale. The overloads below pick the construct.
inline harness::SweepJob cell(const harness::BenchOptions& o, std::string name,
                              proto::Protocol proto, unsigned nprocs) {
  harness::SweepJob j;
  j.name = std::move(name);
  j.machine.protocol = proto;
  j.machine.nprocs = nprocs;
  j.lock_params.total_acquires = o.scaled(32000);
  j.barrier_params.episodes = o.scaled(5000);
  j.reduction_params.rounds = o.scaled(5000);
  return j;
}

inline harness::SweepJob cell(const harness::BenchOptions& o, std::string name,
                              proto::Protocol proto, unsigned nprocs,
                              harness::LockKind k) {
  harness::SweepJob j = cell(o, std::move(name), proto, nprocs);
  j.family = harness::ConstructFamily::Lock;
  j.lock = k;
  return j;
}

inline harness::SweepJob cell(const harness::BenchOptions& o, std::string name,
                              proto::Protocol proto, unsigned nprocs,
                              harness::BarrierKind k) {
  harness::SweepJob j = cell(o, std::move(name), proto, nprocs);
  j.family = harness::ConstructFamily::Barrier;
  j.barrier = k;
  return j;
}

inline harness::SweepJob cell(const harness::BenchOptions& o, std::string name,
                              proto::Protocol proto, unsigned nprocs,
                              harness::ReductionKind k) {
  harness::SweepJob j = cell(o, std::move(name), proto, nprocs);
  j.family = harness::ConstructFamily::Reduction;
  j.reduction = k;
  return j;
}

/// A cell whose experiment is `runner` (SweepJob::runner) on the cell's
/// machine, for experiments the construct families do not cover.
inline harness::SweepJob cell(
    const harness::BenchOptions& o, std::string name, proto::Protocol proto,
    unsigned nprocs,
    std::function<harness::RunResult(const harness::MachineConfig&)> runner) {
  harness::SweepJob j = cell(o, std::move(name), proto, nprocs);
  j.runner = std::move(runner);
  return j;
}

/// A lock cell on the lock `make` builds, through the same lock loop.
inline harness::SweepJob cell(const harness::BenchOptions& o, std::string name,
                              proto::Protocol proto, unsigned nprocs,
                              harness::LockFactory make) {
  harness::SweepJob j = cell(o, std::move(name), proto, nprocs);
  j.runner = [make = std::move(make), params = j.lock_params](
                 const harness::MachineConfig& cfg) {
    return harness::run_lock_experiment(cfg, make, params);
  };
  return j;
}

/// One table row: its label and the cells whose results fill its columns.
struct Row {
  std::string label;
  std::vector<harness::SweepJob> cells;
};

/// One table of a bench.
struct Table {
  std::vector<std::string> headers{};  ///< the label column's header first
  std::vector<Row> rows{};
  /// The columns one cell fills; a row prints its cells' columns in order.
  std::function<std::vector<std::string>(const harness::SweepJob&,
                                         const harness::RunResult&)>
      format{};
  /// When set, one more column computed from all of a row's results.
  std::function<std::string(std::span<const harness::SweepResult>)> derived{};
  /// Printed above the table (not in --csv).
  std::string caption{};
};

/// The common format: one column per cell, its avg_latency to 0.1.
inline std::vector<std::string> latency(const harness::SweepJob&,
                                        const harness::RunResult& r) {
  return {stats::Table::num(r.avg_latency, 1)};
}

/// A cell's miss breakdown (harness::miss_headers columns).
inline std::vector<std::string> misses(const harness::SweepJob&,
                                       const harness::RunResult& r) {
  return harness::miss_cells(r.counters.misses);
}

/// A cell's update breakdown (harness::update_headers columns).
inline std::vector<std::string> updates(const harness::SweepJob&,
                                        const harness::RunResult& r) {
  return harness::update_cells(r.counters.updates);
}

/// A derived column: a two-cell row's second avg_latency over its first.
inline std::string ratio(std::span<const harness::SweepResult> row) {
  return stats::Table::num(row[1].run.avg_latency / row[0].run.avg_latency, 2) + "x";
}

/// A latency table with one column per --procs value ("P=n"); its rows
/// hold one cell per machine size.
inline Table procs_table(std::string first, const harness::BenchOptions& o) {
  Table t{.headers = {std::move(first)}, .format = latency};
  for (unsigned p : o.procs) t.headers.push_back("P=" + std::to_string(p));
  return t;
}

/// A table with `first` as the label header followed by `rest`.
inline std::vector<std::string> headers(std::string first,
                                        std::vector<std::string> rest) {
  rest.insert(rest.begin(), std::move(first));
  return rest;
}

/// Run a bench's cells. With --jobs != 1 and no obs flags the cells run
/// concurrently on the sweep engine; obs output (one shared trace sink,
/// per-run streaming) is inherently ordered, so obs flags force the
/// sequential path (with a stderr note). Both paths contain per-cell
/// failures; results come back in submission order either way.
inline std::vector<harness::SweepResult> run_cells(std::vector<harness::SweepJob> jobs,
                                                   const harness::BenchOptions& opts,
                                                   harness::ObsSession& obs) {
  if (opts.jobs != 1 && obs.enabled())
    std::fprintf(stderr,
                 "note: observability flags stream per-run output; "
                 "running with --jobs=1\n");
  if (opts.jobs != 1 && !obs.enabled()) return harness::run_sweep(jobs, {opts.jobs});
  std::vector<harness::SweepResult> out;
  out.reserve(jobs.size());
  for (harness::SweepJob& job : jobs) {
    obs.configure(job.machine, job.name);
    out.push_back(harness::run_sweep_job(job));
    if (out.back().ok) obs.record(out.back().run);
  }
  return out;
}

/// Run all of `t`'s cells as one sweep and print the table. A failed cell
/// prints "err" in each column it fills (and in the derived column); after
/// the table is printed the failures are reported on stderr and the bench
/// exits 1 (the throw reaches bench_main).
inline void run_rows(const Table& t, const harness::BenchOptions& opts,
                     harness::ObsSession& obs) {
  std::vector<harness::SweepJob> jobs;
  for (const Row& r : t.rows) jobs.insert(jobs.end(), r.cells.begin(), r.cells.end());
  const std::vector<harness::SweepResult> results = run_cells(std::move(jobs), opts, obs);

  stats::Table out = stats::Table::figure(t.headers);
  const std::span<const harness::SweepResult> all(results);
  std::size_t i = 0;
  for (const Row& r : t.rows) {
    const std::span<const harness::SweepResult> row = all.subspan(i, r.cells.size());
    const std::size_t width =
        (t.headers.size() - 1 - (t.derived ? 1 : 0)) / r.cells.size();
    bool ok = true;
    std::vector<std::string> cols{r.label};
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (!row[c].ok) {
        ok = false;
        cols.insert(cols.end(), width, "err");
        continue;
      }
      for (std::string& s : t.format(r.cells[c], row[c].run))
        cols.push_back(std::move(s));
    }
    if (t.derived) cols.push_back(ok ? t.derived(row) : "err");
    out.add_row(std::move(cols));
    i += r.cells.size();
  }

  if (!opts.csv && !t.caption.empty()) std::printf("%s\n", t.caption.c_str());
  if (opts.csv)
    out.print_csv(std::cout);
  else
    out.print(std::cout);
  if (const std::size_t failed = harness::print_failures(results))
    throw std::runtime_error(std::to_string(failed) + " cell(s) failed");
}

inline int bench_main(int argc, char** argv, const char* title,
                      void (*body)(const harness::BenchOptions&,
                                   harness::ObsSession&)) {
  try {
    const harness::BenchOptions opts = harness::parse_bench_args(argc, argv);
    harness::ObsSession obs(opts.obs, harness::program_name(argc > 0 ? argv[0] : nullptr));
    if (!opts.csv) {
      std::printf("%s\n", title);
      std::printf("(scale=%.3g of the paper's iteration counts; --paper for full)\n\n",
                  opts.scale);
    }
    body(opts, obs);
    obs.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

} // namespace ccbench
