// Extension ablation: shared-data layout inside the lock structures.
//
// Figure 1 declares the ticket lock's two counters adjacently (one cache
// block); under update protocols every fetch&add of next_ticket then
// multicasts a FALSE-SHARING update to every spinner of now_serving.
// Splitting the counters into separate blocks removes those updates --
// spinners only cache the now_serving block, so ticket handouts update
// nobody. This quantifies how much of figure 10's tk useless traffic is
// pure layout.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  const std::uint64_t total = opts.scaled(32000);
  harness::Table t({"layout/proto", "avg-lat", "updates", "useful-upd",
                    "false-upd", "misses"});

  for (bool split : {false, true}) {
    for (proto::Protocol proto : kProtocols) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      obs.configure(cfg, series_label(split ? "split" : "packed", proto));
      harness::Machine m(cfg);
      sync::TicketLock lock(m, 0, split);
      const std::uint64_t iters = std::max<std::uint64_t>(1, total / p);
      const Cycle cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
        for (std::uint64_t i = 0; i < iters; ++i) {
          co_await lock.acquire(c);
          co_await c.think(50);
          co_await lock.release(c);
        }
      });
      const double avg =
          static_cast<double>(cycles) / static_cast<double>(iters * p) - 50.0;
      const auto& ctr = m.counters();
      harness::RunResult r;
      r.cycles = cycles;
      r.avg_latency = avg;
      r.counters = ctr;
      harness::capture_obs(r, m);
      obs.record(r);
      t.add_row({series_label(split ? "split" : "packed", proto),
                 harness::Table::num(avg, 1),
                 harness::Table::num(ctr.updates.total()),
                 harness::Table::num(ctr.updates.useful()),
                 harness::Table::num(ctr.updates[stats::UpdateClass::FalseSharing]),
                 harness::Table::num(ctr.misses.total())});
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: ticket-lock counter layout (figure 1's single "
                    "block vs split blocks) at P=32",
                    body);
}
