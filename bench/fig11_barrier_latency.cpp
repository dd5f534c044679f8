// Figure 11: performance of barriers in the synthetic program.
//
// Processors pass a barrier in a tight loop (5000 episodes); reported is
// the average episode latency (execution_time / episodes) per machine
// size, for centralized / dissemination / tree barriers under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t = procs_table("barrier/proto", opts);
  for (harness::BarrierKind k : kPaperBarriers) {
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
  return bench_main(argc, argv, "Figure 11: average barrier episode latency (cycles)",
                    body);
}
