// ccperf: self-profile the simulator on a fixed workload matrix.
//
//   ccperf [--procs N] [--scale X] [--jobs N] [--out FILE]
//          [--progress] [--quiet]
//
// A fixed harness::Grid: the paper's three constructs (ticket lock,
// central barrier, parallel reduction) under WI / PU / CU with
// host-performance telemetry attached (obs/host_perf.hpp) -- nine cells
// that together exercise every protocol engine and construct family. It
// reports how fast the *host* executes the simulator: simulated
// Mcycles/sec, events/sec, event-queue depth statistics, and where host
// time goes (event loop vs protocol handlers vs network routing vs obs
// hooks). This is the report to run before and after a simulator-core
// optimization; bench_compare gates the same throughput series
// continuously via run_trajectory --host-metrics. Flags come from the
// shared table in harness/cli (`--flag value` or `--flag=value`; --procs
// in [1, 64]; --help lists them).
//
// Output: an aligned table on stdout (one row per cell plus a merged
// TOTAL row) and, with --out, a JSON report (schema in docs/schema.md)
// whose per-cell "host" objects match the benches' --json documents.
// Host readings are wall-clock: the table and JSON vary run to run and
// are never byte-compared. Exit codes: 0 = every cell ran and produced
// nonzero throughput; 1 = a cell failed or timed so fast that throughput
// rounded to zero; 2 = usage error.
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

#include <iostream>

using namespace ccsim;
using namespace ccsim::harness;

namespace {

void print_table(std::ostream& os, const std::vector<SweepResult>& results,
                 const obs::HostPerfReport& total) {
  using stats::Table;
  Table t({{"cell", 16, true, ""},
           {"Mcyc", 9, false, " "},
           {"host ms", 9, false, " "},
           {"Mcyc/s", 8, false, " "},
           {"kev/s", 9, false, " "},
           {"q.p50", 6, false, " "},
           {"q.p99", 6, false, " "},
           {"peak", 5, false, " "},
           {"loop/proto/net/obs %", 0, true, "  "}});
  auto row = [&](const std::string& name, const obs::HostPerfReport& h) {
    t.add_row({name, Table::num(static_cast<double>(h.sim_cycles) * 1e-6, 2),
               Table::num(h.ms()), Table::num(h.cycles_per_sec() * 1e-6, 2),
               Table::num(h.events_per_sec() * 1e-3),
               Table::num(h.queue_depth.percentile(0.50)),
               Table::num(h.queue_depth.percentile(0.99)),
               Table::num(h.queue_peak),
               Table::num(100.0 * h.share(obs::HostCat::EventLoop), 0) + "/" +
                   Table::num(100.0 * h.share(obs::HostCat::Protocol), 0) +
                   "/" + Table::num(100.0 * h.share(obs::HostCat::Network), 0) +
                   "/" + Table::num(100.0 * h.share(obs::HostCat::ObsHooks), 0)});
  };
  for (const SweepResult& r : results) {
    if (!r.ok) {
      t.add_row({r.name, "FAILED: " + r.error});
      continue;
    }
    row(r.name, r.run.host);
  }
  row("TOTAL", total);
  t.print(os);
}

void write_report(std::ostream& os, const Grid& g,
                  const std::vector<SweepResult>& results,
                  const obs::HostPerfReport& total) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccperf");
  w.key("procs").value(g.procs.front());
  w.key("scale").value(g.scale);
  w.key("cells").begin_array();
  std::uint64_t ok = 0;
  for (const SweepResult& r : results) {
    ok += r.ok;
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ok").value(r.ok);
    if (r.ok) {
      w.key("host").begin_object();
      write_host_fields(w, r.run.host);
      w.end_object();
    } else {
      w.key("fail_kind").value(to_string(r.fail));
      w.key("error").value(r.error);
    }
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.key("ok").value(ok);
  w.key("host").begin_object();
  write_host_fields(w, total);
  w.end_object();
  w.end_object();
  w.end_object();
  os << '\n';
}

} // namespace

int main(int argc, char** argv) {
  Grid g;
  g.locks = {LockKind::Ticket};
  g.barriers = {BarrierKind::Central};
  g.reductions = {ReductionKind::Parallel};
  g.machine.obs.host_metrics = true;
  ToolOptions o;
  Flags flags{
      {"--procs", "N", [&](const std::string& v) { g.procs = {parse_nodes(v)}; }},
      {"--scale", "X", [&](const std::string& v) { g.scale = parse_scale(v); }},
  };
  return tool_main(argc, argv, "ccperf", std::move(flags), o, [&] {
    const std::vector<SweepResult> results =
        run_sweep(grid_jobs(g,
                            [](const GridCell& c) {
                              return std::string(proto::to_string(c.protocol)) + "/" +
                                     std::string(to_string(c.family)) + "/" +
                                     std::string(c.tag());
                            }),
                  o.sweep());
    const bool any_failed = print_failures(results) != 0;
    obs::HostPerfReport total;
    for (const SweepResult& r : results)
      if (r.ok) total.merge(r.run.host);
    if (!o.quiet) print_table(std::cout, results, total);
    o.write("host-profile report",
            [&](std::ostream& os) { write_report(os, g, results, total); });
    // A throughput of zero means the collector never saw host time pass --
    // a broken clock or a broken hook path; fail loudly.
    const bool measured = total.cycles_per_sec() > 0.0 && total.events_per_sec() > 0.0;
    return !any_failed && measured ? 0 : 1;
  });
}
