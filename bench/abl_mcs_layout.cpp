// Extension ablation: MCS qnode layout -- the paper's packed shared array
// (four qnodes per block) versus block-padded qnodes homed at their
// owners. Padding removes the co-residence that makes spinners cache each
// other's qnodes, which under PU eliminates most proliferation updates --
// quantifying how much of the MCS-under-update problem is a pure layout
// artifact versus intrinsic to the algorithm (the tail-pointer sharing
// remains either way).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"layout/proto", "avg-lat", "misses", "updates", "useful-upd",
                      "prolif-upd"},
          .format = [](const harness::SweepJob&, const harness::RunResult& r) {
            const stats::Counters& ctr = r.counters;
            return std::vector<std::string>{
                stats::Table::num(r.avg_latency, 1),
                stats::Table::num(ctr.misses.total()),
                stats::Table::num(ctr.updates.total()),
                stats::Table::num(ctr.updates.useful()),
                stats::Table::num(ctr.updates[stats::UpdateClass::Proliferation])};
          }};
  for (bool padded : {false, true}) {
    const harness::LockFactory lock = [padded](harness::Machine& m) {
      return std::make_unique<sync::McsLock>(m, /*update_conscious=*/false, /*home=*/0,
                                             padded);
    };
    for (proto::Protocol proto : kProtocols) {
      const std::string label = series_label(padded ? "padded" : "packed", proto);
      t.rows.push_back({label, {cell(opts, label, proto, p, lock)}});
    }
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: MCS qnode layout (packed vs padded) at P=32", body);
}
