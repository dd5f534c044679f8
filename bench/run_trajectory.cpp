// Bench-trajectory writer: the figure suite distilled into one JSON file.
//
// Runs the paper's three synthetic programs (locks, barriers, reductions --
// figures 8, 11, 14) for every construct under WI / PU / CU with the
// cycle-accounting profiler attached, and writes a schema-versioned
// trajectory document (see src/harness/trajectory.hpp): per benchmark the
// total cycles, the paper's latency metric, p50/p99 operation latencies,
// and the per-category cycle breakdown. tools/bench_compare diffs two such
// documents; CI regenerates one per push and compares it against the
// committed BENCH_ppopp97.json baseline.
//
//   run_trajectory [--out FILE] [--scale X] [--procs a,b] [--paper]
//                  [--jobs N] [--host-metrics] [--progress] [--quiet]
//
// The cells are harness::Grid expanded by grid_jobs: every lock, all four
// barriers and both reductions (pr, sr) under WI / PU / CU, named
// "fig08/tk/CU/p16" (no CU threshold in the name). Flags come from the
// shared table in harness/cli (`--flag value` or `--flag=value`; --procs
// items in [1, 64]; --help lists them); errors exit 1.
// Defaults: --out=BENCH_ppopp97.json, --scale=0.02, --procs=16, --jobs=1.
// --progress paints a live stderr cell counter (TTY only; progress is
// presentation, not data, so the written document is unaffected) and
// --quiet suppresses the final "wrote N benchmarks" confirmation.
// --host-metrics additionally records per-entry host throughput (ms,
// cycles/sec, events/sec) so bench_compare can gate simulator-throughput
// drops; host readings are wall-clock, so a --host-metrics document is NOT
// byte-reproducible and the committed baseline is written without it.
// The simulator is deterministic and the suite's cells are independent
// simulations, so --jobs=N fans them out over the sweep engine with
// byte-identical output for every N (the committed baseline can be
// regenerated at full parallelism); a given tree always produces the
// same bytes and the baseline can be compared exactly.
#include "harness/sweep.hpp"
#include "harness/trajectory.hpp"

#include <iostream>

using namespace ccsim;

namespace {

harness::TrajectoryEntry make_entry(std::string name, const harness::RunResult& r) {
  harness::TrajectoryEntry e;
  e.name = std::move(name);
  e.cycles = r.cycles;
  e.avg_latency = r.avg_latency;
  e.p50 = static_cast<double>(r.latency.percentile(0.50));
  e.p99 = static_cast<double>(r.latency.percentile(0.99));
  if (r.profile.enabled()) {
    const auto totals = r.profile.totals();
    e.breakdown.assign(totals.begin(), totals.end());
  }
  if (r.host.enabled()) {
    e.has_host = true;
    e.host_ms = r.host.ms();
    e.cycles_per_sec = r.host.cycles_per_sec();
    e.events_per_sec = r.host.events_per_sec();
  }
  return e;
}

/// "fig08/tk/CU/p16": the figure that plots the construct's family.
std::string point_name(const harness::GridCell& c) {
  constexpr const char* kFigures[] = {"fig08", "fig11", "fig14"};
  std::string s = kFigures[static_cast<std::size_t>(c.family)];
  s += '/';
  s += c.tag();
  s += '/';
  s += proto::to_string(c.protocol);
  s += "/p";
  s += std::to_string(c.procs);
  return s;
}

} // namespace

int main(int argc, char** argv) {
  harness::Grid g;
  g.barriers.assign(std::begin(harness::kBarrierKinds), std::end(harness::kBarrierKinds));
  g.reductions.assign(std::begin(harness::kReductionKinds),
                      std::end(harness::kReductionKinds));
  g.machine.obs.profile = true;  // the breakdown vector is part of the document
  harness::ToolOptions o{.out = "BENCH_ppopp97.json"};
  harness::Flags flags{
      {"--scale", "X", [&](const std::string& v) { g.scale = harness::parse_scale(v); }},
      {"--paper", "", [&](const std::string&) { g.scale = 1.0; }},
      {"--procs", "a,b,...",
       [&](const std::string& v) {
         g.procs = harness::parse_list(v, harness::parse_nodes);
       }},
      {"--host-metrics", "",
       [&](const std::string&) { g.machine.obs.host_metrics = true; }},
  };
  return harness::tool_main(argc, argv, "run_trajectory", std::move(flags), o, [&] {
    const std::vector<harness::SweepResult> results =
        harness::run_sweep(harness::grid_jobs(g, point_name), o.sweep());
    if (const std::size_t failed = harness::print_failures(results))
      throw std::runtime_error(std::to_string(failed) +
                               " cell(s) failed; refusing to write a partial "
                               "trajectory");
    harness::TrajectoryDoc doc;
    doc.bench = "ppopp97";
    for (const harness::SweepResult& r : results)
      doc.entries.push_back(make_entry(r.name, r.run));
    harness::write_output(o.out,
                          [&](std::ostream& os) { harness::write_trajectory(os, doc); });
    if (!o.quiet && o.out != "-")
      std::cout << "wrote " << doc.entries.size() << " benchmarks to " << o.out << "\n";
    return 0;
  }, 1);
}
