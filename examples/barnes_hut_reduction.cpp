// Barnes-Hut-style global reduction (the paper's motivating example: the
// parallel-reduction code of figure 6 "can be found in the Barnes-Hut
// application from the Splash2 suite").
//
// Each simulated processor integrates a chunk of bodies for several
// timesteps; after each timestep the processors reduce their local maximum
// velocity into a global one (used to pick the next dt). The example runs
// the same computation with a parallel (lock-based) and a sequential
// reduction under all three protocols and prints the comparison -- showing
// the paper's headline result: the best reduction strategy depends on the
// coherence protocol.
//
//   $ ./barnes_hut_reduction [nprocs] [timesteps]
#include "ccsim.hpp"

#include <iostream>

using namespace ccsim;

namespace {

struct Result {
  Cycle cycles;
  std::uint64_t final_max;
};

Result run(proto::Protocol p, unsigned nprocs, int steps, bool parallel) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  harness::Machine m(cfg);

  sync::TicketLock lock(m);        // real lock, real barrier: whole-app view
  sync::DisseminationBarrier barrier(m);
  sync::ParallelReduction par(m, lock, barrier);
  sync::SequentialReduction seq(m, barrier);

  // Per-processor "bodies": velocities evolve with a cheap deterministic
  // recurrence; the reduction input is each chunk's local maximum.
  const unsigned bodies_per_proc = 16;
  Result res{0, 0};
  std::uint64_t final_max = 0;

  res.cycles = m.run_all([&, steps](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(42, c.id()));
    std::uint64_t vel[16];
    for (auto& v : vel) v = rng.below(1000);

    for (int t = 0; t < steps; ++t) {
      // "Integrate": local work plus a velocity kick.
      std::uint64_t local_max = 0;
      for (unsigned b = 0; b < bodies_per_proc; ++b) {
        vel[b] += rng.below(50);
        local_max = std::max(local_max, vel[b]);
      }
      co_await c.think(bodies_per_proc * 8);  // force computation

      std::uint64_t global = 0;
      if (parallel)
        co_await par.reduce(c, local_max, &global);
      else
        co_await seq.reduce(c, local_max, &global);
      if (c.id() == 0) final_max = global;
    }
  });
  res.final_max = final_max;
  return res;
}

} // namespace

int main(int argc, char** argv) {
  const unsigned nprocs = argc > 1 ? static_cast<unsigned>(std::stoul(argv[1])) : 16;
  const int steps = argc > 2 ? std::stoi(argv[2]) : 200;

  std::cout << "Barnes-Hut-style max-velocity reduction, " << nprocs
            << " processors, " << steps << " timesteps\n\n";
  stats::Table t = stats::Table::figure(
      {"protocol", "parallel (cycles)", "sequential (cycles)", "winner"});
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    const Result par = run(p, nprocs, steps, /*parallel=*/true);
    const Result seq = run(p, nprocs, steps, /*parallel=*/false);
    if (par.final_max != seq.final_max) {
      std::cerr << "reduction mismatch!\n";
      return 1;
    }
    t.add_row({std::string(proto::to_string(p)), stats::Table::num(par.cycles),
               stats::Table::num(seq.cycles),
               par.cycles < seq.cycles ? "parallel" : "sequential"});
  }
  t.print(std::cout);
  std::cout << "\nRead it both ways: fixing the implementation, the protocol "
               "changes the cost several-fold; fixing the protocol, the "
               "implementation changes the gap (and, with tight synchronization "
               "-- see bench/fig14 -- the winner). Constructs and protocols "
               "must be chosen together: the paper's central point.\n";
  return 0;
}
