// Extension ablation: atomic-primitive reductions (fetch_and_add sum /
// CAS-loop max) against the paper's lock-based parallel and sequential
// max reductions, under all three protocols. Under PU/CU the atomic
// executes at the home memory, so the fetch_and_add reduction behaves
// like hardware combining -- the logical endpoint of the paper's
// observation that update protocols suit reductions.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

/// `rounds` reductions of Reduction (CasMaxReduction or AtomicSumReduction)
/// over a zero-traffic barrier; `value` draws each processor's operand.
template <class Reduction, class Value>
harness::RunResult run_atomic(const harness::MachineConfig& cfg, std::uint64_t rounds,
                              Value value) {
  harness::Machine m(cfg);
  sync::MagicBarrier barrier(m.queue(), cfg.nprocs);
  Reduction red(m, barrier);
  harness::RunResult r;
  r.cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(11, c.id()));
    for (std::uint64_t i = 0; i < rounds; ++i) co_await red.reduce(c, value(c, rng));
  });
  r.avg_latency = static_cast<double>(r.cycles) / static_cast<double>(rounds);
  r.counters = m.counters();
  harness::capture_obs(r, m);
  return r;
}

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const std::uint64_t rounds = opts.scaled(5000);
  Table t = procs_table("red/proto", opts);
  const auto add = [&](std::string_view tag, const auto& experiment) {
    for (proto::Protocol proto : kProtocols) {
      Row r{series_label(tag, proto), {}};
      for (unsigned p : opts.procs)
        r.cells.push_back(
            cell(opts, r.label + "/P" + std::to_string(p), proto, p, experiment));
      t.rows.push_back(std::move(r));
    }
  };
  // Paper baselines (max semantics).
  for (harness::ReductionKind k : kPaperReductions)
    add(harness::tag(k), k);
  // CAS-loop max.
  add("cas", [rounds](const harness::MachineConfig& cfg) {
    return run_atomic<sync::CasMaxReduction>(
        cfg, rounds, [](cpu::Cpu&, sim::Rng& rng) { return rng.below(1ull << 40); });
  });
  // fetch_and_add sum (different operator; shown for its traffic shape).
  add("f&a", [rounds](const harness::MachineConfig& cfg) {
    return run_atomic<sync::AtomicSumReduction>(
        cfg, rounds, [](cpu::Cpu& c, sim::Rng&) { return std::uint64_t{c.id()} + 1; });
  });
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: atomic-primitive reductions vs the paper's "
                    "strategies (avg reduction latency)",
                    body);
}
