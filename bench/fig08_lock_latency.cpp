// Figure 8: performance of spin locks in the synthetic program.
//
// Each processor acquires the lock, holds it for 50 cycles, releases, in a
// tight loop (32000/P iterations). Reported: the average latency of an
// acquire-release pair = execution_time / 32000 - 50, per machine size,
// for ticket / MCS / update-conscious-MCS under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t = procs_table("lock/proto", opts);
  for (harness::LockKind k : harness::kLockKinds) {
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
                    "Figure 8: average acquire-release latency (cycles)", body);
}
