// Extension ablation: the full barrier set -- the paper's three plus the
// MCS'91 combining tree barrier (4-ary arrival, binary wakeup tree of
// per-processor flags) -- under all three protocols. Shows how much of
// the figure-5 tree barrier's cost is the shared global sense flag.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  std::vector<std::string> headers{"barrier/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  for (harness::BarrierKind k :
       {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
        harness::BarrierKind::Tree, harness::BarrierKind::CombiningTree}) {
    for (proto::Protocol proto : kProtocols) {
      const std::string_view tag = harness::tag(k);
      std::vector<std::string> row{series_label(tag, proto)};
      for (unsigned p : opts.procs) {
        harness::MachineConfig cfg;
        cfg.protocol = proto;
        cfg.nprocs = p;
        obs.configure(cfg,
                      series_label(tag, proto) + "/P" + std::to_string(p));
        const auto r =
            harness::run_barrier_experiment(cfg, k, {opts.scaled(5000)});
        obs.record(r);
        row.push_back(harness::Table::num(r.avg_latency, 1));
      }
      t.add_row(std::move(row));
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: all barrier algorithms across protocols "
                    "(avg episode latency)",
                    body);
}
