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
  std::vector<std::string> headers{"lock/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  std::vector<harness::SweepJob> jobs;
  for (harness::LockKind k :
       {harness::LockKind::Ticket, harness::LockKind::Mcs, harness::LockKind::UcMcs}) {
    for (proto::Protocol proto : kProtocols) {
      for (unsigned p : opts.procs) {
        harness::SweepJob j;
        j.name = series_label(harness::tag(k), proto) + "/P" + std::to_string(p);
        j.machine.protocol = proto;
        j.machine.nprocs = p;
        j.family = harness::ConstructFamily::Lock;
        j.lock = k;
        j.lock_params.total_acquires = opts.scaled(32000);
        jobs.push_back(std::move(j));
      }
    }
  }

  const auto results = run_cells(jobs, opts, obs);
  std::size_t i = 0;
  for (harness::LockKind k :
       {harness::LockKind::Ticket, harness::LockKind::Mcs, harness::LockKind::UcMcs}) {
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
  return bench_main(argc, argv,
                    "Figure 8: average acquire-release latency (cycles)", body);
}
