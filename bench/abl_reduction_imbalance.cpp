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
    std::vector<std::string> headers{"red/proto"};
    for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
    harness::Table t(std::move(headers));

    for (harness::ReductionKind k :
         {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel}) {
      for (proto::Protocol proto : kProtocols) {
        std::vector<std::string> row{series_label(harness::tag(k), proto)};
        for (unsigned p : opts.procs) {
          harness::MachineConfig cfg;
          cfg.protocol = proto;
          cfg.nprocs = p;
          harness::ReductionParams params;
          params.rounds = opts.scaled(5000);
          params.imbalance_max = imbalance;
          obs.configure(cfg, series_label(harness::tag(k), proto) + "/imb" +
                                 std::to_string(imbalance) + "/P" +
                                 std::to_string(p));
          const auto r = harness::run_reduction_experiment(cfg, k, params);
          obs.record(r);
          // Subtract the mean injected imbalance so columns stay comparable.
          row.push_back(harness::Table::num(
              r.avg_latency - static_cast<double>(imbalance) / 2.0, 1));
        }
        t.add_row(std::move(row));
      }
    }
    if (!opts.csv)
      std::printf("--- pre-reduction imbalance in [0, %llu] cycles ---\n",
                  static_cast<unsigned long long>(imbalance));
    print_table(t, opts);
    if (!opts.csv) std::printf("\n");
  }
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: reductions under load imbalance (section 4.3)", body);
}
