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
                 const char* tag, const char* name, harness::LockParams params) {
  Table t = procs_table("lock/proto", opts);
  t.caption = name;
  params.total_acquires = opts.scaled(32000);
  for (harness::LockKind k : harness::kLockKinds) {
    for (proto::Protocol proto : kProtocols) {
      Row r{series_label(harness::tag(k), proto), {}};
      for (unsigned p : opts.procs) {
        harness::SweepJob j =
            cell(opts, std::string(tag) + "/" + r.label + "/P" + std::to_string(p), proto,
                 p, k);
        j.lock_params = params;
        // The work ratio tracks the machine size.
        if (params.work_ratio != 0) j.lock_params.work_ratio = p;
        r.cells.push_back(std::move(j));
      }
      t.rows.push_back(std::move(r));
    }
  }
  run_rows(t, opts, obs);
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
