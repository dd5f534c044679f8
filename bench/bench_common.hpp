// Shared scaffolding for the figure-reproduction benches.
#pragma once

#include "ccsim.hpp"
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccbench {

using namespace ccsim;

/// The protocols the figure benches sweep. Protocol::Hybrid is
/// deliberately excluded: a hybrid machine is meaningless without
/// per-region Machine::bind_protocol calls choosing a protocol for each
/// allocation, and the generic figure workloads make none (every region
/// would silently run hybrid_default, duplicating a pure-protocol
/// column under a misleading label). The dedicated abl_hybrid bench,
/// which binds each construct's memory to its best protocol, is the one
/// place hybrid machines are measured; series_label still handles
/// Hybrid ("/h") for that bench's tables.
inline constexpr proto::Protocol kProtocols[] = {proto::Protocol::WI,
                                                 proto::Protocol::PU,
                                                 proto::Protocol::CU};

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

inline void print_table(const harness::Table& t, const harness::BenchOptions& o) {
  if (o.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
}

/// Run a figure sweep's cells. With --jobs != 1 and no obs flags the
/// cells run concurrently on the sweep engine; obs output (one shared
/// trace sink, per-run streaming) is inherently ordered, so obs flags
/// force the sequential path (with a stderr note). Both paths contain
/// per-cell failures; results come back in submission order either way.
inline std::vector<harness::SweepResult> run_cells(
    const std::vector<harness::SweepJob>& jobs, const harness::BenchOptions& opts,
    harness::ObsSession& obs) {
  if (opts.jobs != 1 && obs.enabled())
    std::fprintf(stderr,
                 "note: observability flags stream per-run output; "
                 "running with --jobs=1\n");
  if (opts.jobs != 1 && !obs.enabled()) return harness::run_sweep(jobs, {opts.jobs});
  std::vector<harness::SweepResult> out;
  out.reserve(jobs.size());
  for (const harness::SweepJob& j : jobs) {
    harness::SweepJob job = j;
    obs.configure(job.machine, job.name);
    out.push_back(harness::run_sweep_job(job));
    if (out.back().ok) obs.record(out.back().run);
  }
  return out;
}

/// Table cell for one sweep result ("err" for a contained failure).
inline std::string cell_num(const harness::SweepResult& r, int precision = 1) {
  return r.ok ? harness::Table::num(r.run.avg_latency, precision)
              : std::string("err");
}

/// After the table is printed: report failed cells on stderr and exit
/// nonzero (throwing matches bench_main's error path).
inline void check_failures(const std::vector<harness::SweepResult>& results) {
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
