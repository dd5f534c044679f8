// Figure 10: update traffic of spin locks in the synthetic program (32
// procs), PU and CU only. Categories: useful (true sharing) / false
// sharing / proliferation / replacement / termination ("End") / drop.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  std::vector<std::string> headers{"lock/proto"};
  for (const auto& h : harness::update_headers()) headers.push_back(h);
  harness::Table t(std::move(headers));

  const unsigned p = opts.procs.back();
  for (harness::LockKind k :
       {harness::LockKind::Ticket, harness::LockKind::Mcs, harness::LockKind::UcMcs}) {
    for (proto::Protocol proto : {proto::Protocol::PU, proto::Protocol::CU}) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      harness::LockParams params;
      params.total_acquires = opts.scaled(32000);
      obs.configure(cfg, series_label(harness::tag(k), proto));
      const auto r = harness::run_lock_experiment(cfg, k, params);
      obs.record(r);
      std::vector<std::string> row{series_label(harness::tag(k), proto)};
      for (auto& cell : harness::update_cells(r.counters.updates)) row.push_back(cell);
      t.add_row(std::move(row));
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 10: lock update traffic at P=32", body);
}
