// Figure 15: miss traffic of reductions in the synthetic program (32 procs).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  std::vector<std::string> headers{"red/proto"};
  for (const auto& h : harness::miss_headers()) headers.push_back(h);
  harness::Table t(std::move(headers));

  const unsigned p = opts.procs.back();
  for (harness::ReductionKind k :
       {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel}) {
    for (proto::Protocol proto : kProtocols) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      harness::ReductionParams params;
      params.rounds = opts.scaled(5000);
      obs.configure(cfg, series_label(harness::tag(k), proto));
      const auto r = harness::run_reduction_experiment(cfg, k, params);
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
  return bench_main(argc, argv, "Figure 15: reduction cache-miss traffic at P=32",
                    body);
}
