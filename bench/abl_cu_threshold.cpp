// Ablation (design choice, DESIGN.md): the competitive-update threshold.
//
// The paper fixes the per-block counter threshold at 4; this sweeps it
// over {1, 2, 4, 8, 16} on the lock and barrier workloads to show the
// trade-off between update suppression (drops/prunes) and drop misses.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"workload", "thresh", "avg-lat", "misses", "drop-miss", "updates",
                      "drops"},
          .format = [](const harness::SweepJob& j, const harness::RunResult& r) {
            return std::vector<std::string>{
                stats::Table::num(std::uint64_t{j.machine.cu_threshold}),
                stats::Table::num(r.avg_latency, 1),
                stats::Table::num(r.counters.misses.total()),
                stats::Table::num(r.counters.misses[stats::MissClass::Drop]),
                stats::Table::num(r.counters.updates.total()),
                stats::Table::num(r.counters.updates[stats::UpdateClass::Drop])};
          }};
  for (unsigned thresh : {1u, 2u, 4u, 8u, 16u}) {
    const std::string suffix = "/t" + std::to_string(thresh);
    harness::SweepJob lock =
        cell(opts, "MCS" + suffix, proto::Protocol::CU, p, harness::LockKind::Mcs);
    harness::SweepJob barrier = cell(opts, "cb" + suffix, proto::Protocol::CU, p,
                                     harness::BarrierKind::Central);
    lock.machine.cu_threshold = barrier.machine.cu_threshold = thresh;
    t.rows.push_back({"MCS lock", {std::move(lock)}});
    t.rows.push_back({"central barrier", {std::move(barrier)}});
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: competitive-update threshold sweep (CU, P=32)", body);
}
