// Application-level protocol comparison: the four kernels under the three
// protocols, with correctness enforced on every run. This is the paper's
// bottom line exercised end to end: construct and protocol choices visible
// in whole-application cycles, not just microbenchmark latencies.
#include "apps/kernels.hpp"
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"kernel/proto", "cycles", "misses", "updates", "useful-upd"},
          .format = [](const harness::SweepJob&, const harness::RunResult& r) {
            return std::vector<std::string>{
                stats::Table::num(r.cycles), stats::Table::num(r.counters.misses.total()),
                stats::Table::num(r.counters.updates.total()),
                stats::Table::num(r.counters.updates.useful())};
          }};
  for (proto::Protocol proto : kProtocols) {
    const std::string tag = "/" + std::string(proto::to_string(proto));
    // An oracle mismatch fails the kernel's cell.
    const auto add = [&](const std::string& kernel, auto run, auto params) {
      t.rows.push_back(
          {kernel + tag,
           {cell(opts, kernel + tag, proto, p,
                 [run, params](const harness::MachineConfig& cfg) -> harness::RunResult {
                   apps::KernelResult r = run(cfg, params);
                   if (!r.correct) throw std::runtime_error("oracle check FAILED");
                   return r;
                 })}});
    };
    add("sor", apps::run_sor,
        apps::SorParams{.sweeps = static_cast<int>(opts.scaled(640))});
    add("histogram", apps::run_histogram,
        apps::HistogramParams{
            .items_per_proc = static_cast<unsigned>(opts.scaled(1280))});
    apps::NbodyParams nb{.steps = static_cast<int>(opts.scaled(320))};
    add("nbody-pr", apps::run_nbody_step, nb);
    nb.parallel_reduction = false;
    add("nbody-sr", apps::run_nbody_step, nb);
    add("pipeline", apps::run_pipeline,
        apps::PipelineParams{.items = static_cast<unsigned>(opts.scaled(2560))});
    add("matmul", apps::run_matmul, apps::MatmulParams{.dim = 16});
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Application kernel suite across protocols (P=32, "
                    "oracle-checked)",
                    body);
}
