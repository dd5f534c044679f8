// Ablation (paper section 4.1, prose): lock experiments under reduced
// contention -- (a) a pseudorandom bounded pause after each release, and
// (b) work outside / inside the critical section ~= P (+-10%).
//
// The paper reports both variants are qualitatively the same as the tight
// loop; this bench lets you check that claim.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void run_variant(const harness::BenchOptions& opts, harness::ObsSession& obs,
                 const char* tag, const char* name,
                 harness::LockParams params) {
  std::vector<std::string> headers{"lock/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  for (harness::LockKind k :
       {harness::LockKind::Ticket, harness::LockKind::Mcs, harness::LockKind::UcMcs}) {
    for (proto::Protocol proto : kProtocols) {
      std::vector<std::string> row{series_label(harness::tag(k), proto)};
      for (unsigned p : opts.procs) {
        harness::MachineConfig cfg;
        cfg.protocol = proto;
        cfg.nprocs = p;
        harness::LockParams pp = params;
        pp.total_acquires = opts.scaled(32000);
        if (pp.work_ratio != 0) pp.work_ratio = p;  // ratio tracks machine size
        obs.configure(cfg, std::string(tag) + "/" +
                               series_label(harness::tag(k), proto) + "/P" +
                               std::to_string(p));
        const auto r = harness::run_lock_experiment(cfg, k, pp);
        obs.record(r);
        row.push_back(harness::Table::num(r.avg_latency, 1));
      }
      t.add_row(std::move(row));
    }
  }
  if (!opts.csv) std::printf("%s\n", name);
  print_table(t, opts);
  if (!opts.csv) std::printf("\n");
}

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  harness::LockParams pause;
  pause.random_pause_max = 500;
  run_variant(opts, obs, "pause",
              "--- random bounded pause after release (max 500 cycles) ---",
              pause);

  harness::LockParams ratio;
  ratio.work_ratio = 1;  // replaced by P per machine size
  run_variant(opts, obs, "ratio",
              "--- work outside/inside critical section ~= P (+-10%) ---",
              ratio);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: spin locks under reduced contention (section 4.1)",
                    body);
}
