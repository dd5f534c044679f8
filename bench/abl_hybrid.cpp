// The paper's conclusion, executed: "for multiprocessors that can support
// more than one coherence protocol both the protocol and implementation
// should be taken into account when exploiting parallel constructs."
//
// A combined workload -- an MCS-lock critical section plus a CENTRALIZED
// barrier per round -- pits constructs whose best protocols DIFFER: the
// contended MCS lock wants CU (figure 8) while the centralized barrier
// wants WI at scale (figure 11). No pure machine can satisfy both; the
// hybrid machine binds the lock's data to CU and the barrier's counter to
// WI and should win at the larger sizes where the tension bites.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

/// `rounds` rounds of the combined workload; a hybrid machine binds the
/// lock to CU and the barrier to WI.
harness::RunResult run_combined(const harness::MachineConfig& cfg, std::uint64_t rounds) {
  harness::Machine m(cfg);
  sync::McsLock lock(m);
  sync::CentralBarrier barrier(m);
  if (cfg.protocol == proto::Protocol::Hybrid) {
    m.bind_protocol(lock.tail_addr(), mem::kWordSize, proto::Protocol::CU);
    for (NodeId i = 0; i < cfg.nprocs; ++i)
      m.bind_protocol(lock.qnode_addr(i), 2 * mem::kWordSize, proto::Protocol::CU);
    // count and sense share one block (figure 3): bind it to WI.
    m.bind_protocol(barrier.count_addr(), 2 * mem::kWordSize, proto::Protocol::WI);
  }
  harness::RunResult r;
  r.cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      co_await lock.acquire(c);
      co_await c.think(50);
      co_await lock.release(c);
      co_await barrier.wait(c);
    }
  });
  r.avg_latency = static_cast<double>(r.cycles) / static_cast<double>(rounds);
  r.counters = m.counters();
  harness::capture_obs(r, m);
  return r;
}

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const std::uint64_t rounds = opts.scaled(2000);
  Table t = procs_table("machine", opts);
  const auto combined = [rounds](const harness::MachineConfig& cfg) {
    return run_combined(cfg, rounds);
  };
  const auto add = [&](const char* label, const char* tag, proto::Protocol machine) {
    Row r{label, {}};
    for (unsigned p : opts.procs)
      r.cells.push_back(
          cell(opts, std::string(tag) + "/P" + std::to_string(p), machine, p, combined));
    t.rows.push_back(std::move(r));
  };
  add("pure WI", "WI", proto::Protocol::WI);
  add("pure PU", "PU", proto::Protocol::PU);
  add("pure CU", "CU", proto::Protocol::CU);
  add("hybrid (lock=CU, barrier=WI)", "hybrid", proto::Protocol::Hybrid);
  run_rows(t, opts, obs);
  if (!opts.csv)
    std::printf("\nrows are cycles per round (one critical section + one "
                "barrier episode)\n");
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Hybrid machine: per-construct protocol binding vs pure "
                    "machines (combined lock+barrier workload)",
                    body);
}
