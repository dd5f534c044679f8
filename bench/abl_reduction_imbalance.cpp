// Ablation (paper section 4.3, prose): reductions with load imbalance.
//
// A pseudorandom pre-reduction delay reduces lock contention; the paper
// reports parallel reductions become more efficient than sequential ones,
// but parallel under PU/CU still beats parallel under WI.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  for (Cycle imbalance : {Cycle{0}, Cycle{500}, Cycle{2000}}) {
    Table t = procs_table("red/proto", opts);
    // Subtract the mean injected imbalance so columns stay comparable.
    t.format = [imbalance](const harness::SweepJob&, const harness::RunResult& r) {
      return std::vector<std::string>{stats::Table::num(
          r.avg_latency - static_cast<double>(imbalance) / 2.0, 1)};
    };
    t.caption = "--- pre-reduction imbalance in [0, " + std::to_string(imbalance) +
                "] cycles ---";
    for (harness::ReductionKind k : kPaperReductions) {
      for (proto::Protocol proto : kProtocols) {
        Row r{series_label(harness::tag(k), proto), {}};
        for (unsigned p : opts.procs) {
          harness::SweepJob j = cell(opts,
                                     r.label + "/imb" + std::to_string(imbalance) +
                                         "/P" + std::to_string(p),
                                     proto, p, k);
          j.reduction_params.imbalance_max = imbalance;
          r.cells.push_back(std::move(j));
        }
        t.rows.push_back(std::move(r));
      }
    }
    run_rows(t, opts, obs);
    if (!opts.csv) std::printf("\n");
  }
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: reductions under load imbalance (section 4.3)", body);
}
