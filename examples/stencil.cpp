// Red-black Gauss-Seidel stencil relaxation -- a barrier-per-sweep
// mini-app in the mold of the SPLASH kernels the paper's methodology
// targets. Each processor owns a band of rows of a 1D heat rod
// (block-padded, homed at its owner); neighbors exchange halo cells every
// sweep; a barrier separates the phases; every 8 sweeps the processors run
// a convergence reduction (maximum residual).
//
// The run prints per-protocol execution time and traffic for two barrier
// choices, showing how the paper's construct-level conclusions translate
// into whole-application behavior: the dissemination barrier's advantage
// under update protocols carries straight through to app speedup, and the
// halo exchange itself is exactly the producer/consumer pattern update
// protocols excel at.
//
//   $ ./stencil [nprocs] [cells_per_proc] [sweeps]
#include "ccsim.hpp"

#include <iostream>

using namespace ccsim;

namespace {

struct AppResult {
  Cycle cycles = 0;
  std::uint64_t residual = 0;
  stats::Counters counters;
};

AppResult run(proto::Protocol p, unsigned nprocs, unsigned cells, int sweeps,
              harness::BarrierKind bk) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  harness::Machine m(cfg);

  std::unique_ptr<sync::Barrier> barrier;
  switch (bk) {
    case harness::BarrierKind::Central:
      barrier = std::make_unique<sync::CentralBarrier>(m);
      break;
    default:
      barrier = std::make_unique<sync::DisseminationBarrier>(m);
      break;
  }
  sync::CasMaxReduction residual(m, *barrier);

  // Each processor's band: `cells` fixed-point values in its own memory;
  // plus a block-padded halo slot either side, written by the neighbor.
  std::vector<Addr> band(nprocs), halo_lo(nprocs), halo_hi(nprocs);
  for (NodeId i = 0; i < nprocs; ++i) {
    band[i] = m.alloc().allocate_on(i, cells * mem::kWordSize);
    halo_lo[i] = m.alloc().allocate_on(i, mem::kWordSize);
    halo_hi[i] = m.alloc().allocate_on(i, mem::kWordSize);
  }
  // Initial condition: hot left end.
  m.poke(band[0], 1'000'000);

  AppResult res;
  std::uint64_t final_residual = 0;
  res.cycles = m.run_all([&, sweeps, cells](cpu::Cpu& c) -> sim::Task {
    const NodeId me = c.id();
    for (int s = 0; s < sweeps; ++s) {
      // Publish boundary cells into the neighbors' halo slots.
      if (me > 0) {
        const std::uint64_t first = co_await c.load(band[me]);
        co_await c.store(halo_hi[me - 1], first);
      }
      if (me + 1 < m.nprocs()) {
        const std::uint64_t last =
            co_await c.load(band[me] + (cells - 1) * mem::kWordSize);
        co_await c.store(halo_lo[me + 1], last);
      }
      co_await c.fence();
      co_await barrier->wait(c);

      // Relax the band: v[i] = (v[i-1] + 2 v[i] + v[i+1]) / 4, walking
      // left to right with the halos as boundary values.
      std::uint64_t left = me > 0 ? co_await c.load(halo_lo[me]) : 0;
      std::uint64_t max_delta = 0;
      for (unsigned i = 0; i < cells; ++i) {
        const Addr a = band[me] + i * mem::kWordSize;
        const std::uint64_t v = co_await c.load(a);
        const std::uint64_t right = i + 1 < cells
                                        ? co_await c.load(a + mem::kWordSize)
                                        : (me + 1 < m.nprocs()
                                               ? co_await c.load(halo_hi[me])
                                               : 0);
        const std::uint64_t nv = (left + 2 * v + right) / 4;
        max_delta = std::max(max_delta, nv > v ? nv - v : v - nv);
        co_await c.store(a, nv);
        left = nv;
        co_await c.think(4);  // the arithmetic
      }
      co_await barrier->wait(c);

      // Convergence check every 8 sweeps.
      if (s % 8 == 7) {
        std::uint64_t global = 0;
        co_await residual.reduce(c, max_delta, &global);
        if (me == 0) final_residual = global;
      }
    }
  });
  res.residual = final_residual;
  res.counters = m.counters();
  return res;
}

} // namespace

int main(int argc, char** argv) {
  const unsigned nprocs = argc > 1 ? static_cast<unsigned>(std::stoul(argv[1])) : 16;
  const unsigned cells = argc > 2 ? static_cast<unsigned>(std::stoul(argv[2])) : 24;
  const int sweeps = argc > 3 ? std::stoi(argv[3]) : 64;

  std::cout << "Red-black stencil: " << nprocs << " procs x " << cells
            << " cells, " << sweeps << " sweeps\n\n";
  stats::Table t = stats::Table::figure(
      {"proto/barrier", "cycles", "misses", "updates", "useful-upd", "residual"});
  std::uint64_t want_residual = 0;
  bool first = true;
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    for (harness::BarrierKind bk :
         {harness::BarrierKind::Central, harness::BarrierKind::Dissemination}) {
      const AppResult r = run(p, nprocs, cells, sweeps, bk);
      // Identical numerics regardless of protocol/barrier: a strong
      // whole-app coherence check.
      if (first) {
        want_residual = r.residual;
        first = false;
      } else if (r.residual != want_residual) {
        std::cerr << "numerics diverged across protocols!\n";
        return 1;
      }
      t.add_row({std::string(proto::to_string(p)) + "/" +
                     std::string(to_string(bk)),
                 stats::Table::num(r.cycles),
                 stats::Table::num(r.counters.misses.total()),
                 stats::Table::num(r.counters.updates.total()),
                 stats::Table::num(r.counters.updates.useful()),
                 stats::Table::num(r.residual)});
    }
  }
  t.print(std::cout);
  std::cout << "\nSame numerics everywhere; the protocol and barrier choice "
               "changes only (and substantially) the cycle count.\n";
  return 0;
}
