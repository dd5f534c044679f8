// Figure 14: performance of reductions in the synthetic program.
//
// Each processor performs 5000 max-reductions in a tight loop,
// synchronized by zero-traffic (magic) lock/barrier so only the
// reduction's own communication is measured. Reported: the average
// latency of a whole reduction (execution_time / rounds), for parallel
// vs sequential reductions under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t = procs_table("red/proto", opts);
  for (harness::ReductionKind k : kPaperReductions) {
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
  return bench_main(argc, argv, "Figure 14: average reduction latency (cycles)", body);
}
