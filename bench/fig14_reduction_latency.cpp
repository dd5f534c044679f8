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
  std::vector<std::string> headers{"red/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  std::vector<harness::SweepJob> jobs;
  for (harness::ReductionKind k :
       {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel}) {
    for (proto::Protocol proto : kProtocols) {
      for (unsigned p : opts.procs) {
        harness::SweepJob j;
        j.name = series_label(harness::tag(k), proto) + "/P" + std::to_string(p);
        j.machine.protocol = proto;
        j.machine.nprocs = p;
        j.family = harness::ConstructFamily::Reduction;
        j.reduction = k;
        j.reduction_params.rounds = opts.scaled(5000);
        jobs.push_back(std::move(j));
      }
    }
  }

  const auto results = run_cells(jobs, opts, obs);
  std::size_t i = 0;
  for (harness::ReductionKind k :
       {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel}) {
    for (proto::Protocol proto : kProtocols) {
      std::vector<std::string> row{series_label(harness::tag(k), proto)};
      for (unsigned p : opts.procs) {
        (void)p;
        row.push_back(cell_num(results[i++]));
      }
      t.add_row(std::move(row));
    }
  }
  print_table(t, opts);
  check_failures(results);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 14: average reduction latency (cycles)", body);
}
