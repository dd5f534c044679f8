// Figure 12: miss traffic of barriers in the synthetic program (32 procs).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  std::vector<std::string> headers{"barrier/proto"};
  for (const auto& h : harness::miss_headers()) headers.push_back(h);
  harness::Table t(std::move(headers));

  const unsigned p = opts.procs.back();
  for (harness::BarrierKind k :
       {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
        harness::BarrierKind::Tree}) {
    for (proto::Protocol proto : kProtocols) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      obs.configure(cfg, series_label(harness::tag(k), proto));
      const auto r = harness::run_barrier_experiment(cfg, k, {opts.scaled(5000)});
      obs.record(r);
      std::vector<std::string> row{series_label(harness::tag(k), proto)};
      for (auto& cell : harness::miss_cells(r.counters.misses)) row.push_back(cell);
      t.add_row(std::move(row));
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 12: barrier cache-miss traffic at P=32", body);
}
