// Extension ablation: atomic-primitive reductions (fetch_and_add sum /
// CAS-loop max) against the paper's lock-based parallel and sequential
// max reductions, under all three protocols. Under PU/CU the atomic
// executes at the home memory, so the fetch_and_add reduction behaves
// like hardware combining -- the logical endpoint of the paper's
// observation that update protocols suit reductions.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

double run_cas_max(harness::ObsSession& obs, proto::Protocol p,
                   unsigned nprocs, std::uint64_t rounds) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  obs.configure(cfg, series_label("cas", p) + "/P" + std::to_string(nprocs));
  harness::Machine m(cfg);
  sync::MagicBarrier barrier(m.queue(), nprocs);
  sync::CasMaxReduction red(m, barrier);
  const Cycle cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(11, c.id()));
    for (std::uint64_t r = 0; r < rounds; ++r)
      co_await red.reduce(c, rng.below(1ull << 40));
  });
  harness::RunResult r;
  r.cycles = cycles;
  r.avg_latency = static_cast<double>(cycles) / static_cast<double>(rounds);
  r.counters = m.counters();
  r.samples = m.samples();
  r.hot = m.hot_blocks();
  obs.record(r);
  return r.avg_latency;
}

double run_atomic_sum(harness::ObsSession& obs, proto::Protocol p,
                      unsigned nprocs, std::uint64_t rounds) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  obs.configure(cfg, series_label("f&a", p) + "/P" + std::to_string(nprocs));
  harness::Machine m(cfg);
  sync::MagicBarrier barrier(m.queue(), nprocs);
  sync::AtomicSumReduction red(m, barrier);
  const Cycle cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (std::uint64_t r = 0; r < rounds; ++r) co_await red.reduce(c, c.id() + 1);
  });
  harness::RunResult r;
  r.cycles = cycles;
  r.avg_latency = static_cast<double>(cycles) / static_cast<double>(rounds);
  r.counters = m.counters();
  r.samples = m.samples();
  r.hot = m.hot_blocks();
  obs.record(r);
  return r.avg_latency;
}

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const std::uint64_t rounds = opts.scaled(5000);
  std::vector<std::string> headers{"red/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  // Paper baselines (max semantics).
  for (harness::ReductionKind k :
       {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel}) {
    for (proto::Protocol proto : kProtocols) {
      std::vector<std::string> row{series_label(harness::tag(k), proto)};
      for (unsigned p : opts.procs) {
        harness::MachineConfig cfg;
        cfg.protocol = proto;
        cfg.nprocs = p;
        obs.configure(cfg, series_label(harness::tag(k), proto) + "/P" +
                               std::to_string(p));
        const auto r = harness::run_reduction_experiment(cfg, k, {.rounds = rounds});
        obs.record(r);
        row.push_back(harness::Table::num(r.avg_latency, 1));
      }
      t.add_row(std::move(row));
    }
  }
  // CAS-loop max.
  for (proto::Protocol proto : kProtocols) {
    std::vector<std::string> row{series_label("cas", proto)};
    for (unsigned p : opts.procs)
      row.push_back(harness::Table::num(run_cas_max(obs, proto, p, rounds), 1));
    t.add_row(std::move(row));
  }
  // fetch_and_add sum (different operator; shown for its traffic shape).
  for (proto::Protocol proto : kProtocols) {
    std::vector<std::string> row{series_label("f&a", proto)};
    for (unsigned p : opts.procs)
      row.push_back(harness::Table::num(run_atomic_sum(obs, proto, p, rounds), 1));
    t.add_row(std::move(row));
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: atomic-primitive reductions vs the paper's "
                    "strategies (avg reduction latency)",
                    body);
}
