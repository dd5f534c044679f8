// Figure 11: performance of barriers in the synthetic program.
//
// Processors pass a barrier in a tight loop (5000 episodes); reported is
// the average episode latency (execution_time / episodes) per machine
// size, for centralized / dissemination / tree barriers under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  std::vector<std::string> headers{"barrier/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  std::vector<harness::SweepJob> jobs;
  for (harness::BarrierKind k :
       {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
        harness::BarrierKind::Tree}) {
    for (proto::Protocol proto : kProtocols) {
      for (unsigned p : opts.procs) {
        harness::SweepJob j;
        j.name = series_label(harness::tag(k), proto) + "/P" + std::to_string(p);
        j.machine.protocol = proto;
        j.machine.nprocs = p;
        j.family = harness::ConstructFamily::Barrier;
        j.barrier = k;
        j.barrier_params.episodes = opts.scaled(5000);
        jobs.push_back(std::move(j));
      }
    }
  }

  const auto results = run_cells(jobs, opts, obs);
  std::size_t i = 0;
  for (harness::BarrierKind k :
       {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
        harness::BarrierKind::Tree}) {
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
  return bench_main(argc, argv, "Figure 11: average barrier episode latency (cycles)",
                    body);
}
