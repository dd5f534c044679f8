// Extension ablation: the full barrier set -- the paper's three plus the
// MCS'91 combining tree barrier (4-ary arrival, binary wakeup tree of
// per-processor flags) -- under all three protocols. Shows how much of
// the figure-5 tree barrier's cost is the shared global sense flag.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t = procs_table("barrier/proto", opts);
  for (harness::BarrierKind k : harness::kBarrierKinds) {
    for (proto::Protocol proto : kProtocols) {
      Row r{series_label(harness::tag(k), proto), {}};
      for (unsigned p : opts.procs)
        r.cells.push_back(cell(opts, r.label + "/P" + std::to_string(p), proto, p, k));
      t.rows.push_back(std::move(r));
    }
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: all barrier algorithms across protocols "
                    "(avg episode latency)",
                    body);
}
