#include "apps/kernels.hpp"

#include "sim/rng.hpp"
#include "sync/barriers.hpp"
#include "sync/reductions.hpp"
#include "sync/ticket_lock.hpp"

#include <memory>
#include <string>
#include <vector>

namespace ccsim::apps {

// ---------------------------------------------------------------------
// SOR
// ---------------------------------------------------------------------

KernelResult run_sor(const harness::MachineConfig& cfg, const SorParams& params) {
  harness::Machine m(cfg);
  const unsigned nprocs = cfg.nprocs;
  auto barrier = harness::make_barrier(m, params.barrier);

  const unsigned cells = params.cells_per_proc;
  std::vector<Addr> band(nprocs), halo_lo(nprocs), halo_hi(nprocs);
  for (NodeId i = 0; i < nprocs; ++i) {
    band[i] = m.alloc().allocate_on(i, cells * mem::kWordSize,
                                    "stencil.band" + std::to_string(i));
    halo_lo[i] = m.alloc().allocate_on(i, mem::kWordSize,
                                       "stencil.halo_lo" + std::to_string(i));
    halo_hi[i] = m.alloc().allocate_on(i, mem::kWordSize,
                                       "stencil.halo_hi" + std::to_string(i));
  }
  m.poke(band[0], 1'000'000);  // hot left boundary

  // Host-side oracle: the same relaxation on a flat array.
  const unsigned total = nprocs * cells;
  std::vector<std::uint64_t> oracle(total, 0);
  oracle[0] = 1'000'000;
  for (int s = 0; s < params.sweeps; ++s) {
    std::vector<std::uint64_t> next(total);
    std::uint64_t left_halo = 0;
    for (unsigned i = 0; i < total; ++i) {
      const std::uint64_t left = i == 0 ? 0 : (i % cells == 0 ? left_halo : next[i - 1]);
      const std::uint64_t right = i + 1 < total ? oracle[i + 1] : 0;
      next[i] = (left + 2 * oracle[i] + right) / 4;
      // A processor reads its left neighbor's PRE-sweep boundary value
      // (published before the barrier), but its own in-band left neighbor
      // post-sweep (Gauss-Seidel within the band).
      if ((i + 1) % cells == 0) left_halo = oracle[i];  // halo published pre-sweep
    }
    // Fix the halo semantics: halo for band b is oracle[b*cells - 1]
    // (pre-sweep), which the loop above captured as it passed.
    oracle = next;
  }

  KernelResult res;
  res.cycles = m.run_all([&, cells](cpu::Cpu& c) -> sim::Task {
    const NodeId me = c.id();
    for (int s = 0; s < params.sweeps; ++s) {
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

      std::uint64_t left = me > 0 ? co_await c.load(halo_lo[me]) : 0;
      for (unsigned i = 0; i < cells; ++i) {
        const Addr a = band[me] + i * mem::kWordSize;
        const std::uint64_t v = co_await c.load(a);
        const std::uint64_t right =
            i + 1 < cells ? co_await c.load(a + mem::kWordSize)
                          : (me + 1 < m.nprocs() ? co_await c.load(halo_hi[me]) : 0);
        const std::uint64_t nv = (left + 2 * v + right) / 4;
        co_await c.store(a, nv);
        left = nv;
        co_await c.think(4);
      }
      co_await barrier->wait(c);
    }
    co_await c.fence();
  });

  res.correct = true;
  for (NodeId i = 0; i < nprocs && res.correct; ++i)
    for (unsigned k = 0; k < cells && res.correct; ++k)
      res.correct = m.peek(band[i] + k * mem::kWordSize) == oracle[i * cells + k];
  res.counters = m.counters();
  harness::capture_obs(res, m);
  return res;
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

KernelResult run_histogram(const harness::MachineConfig& cfg,
                           const HistogramParams& params) {
  harness::Machine m(cfg);
  const unsigned nprocs = cfg.nprocs;

  // One bucket counter + one lock per bucket, distributed round-robin.
  std::vector<Addr> bucket(params.buckets);
  std::vector<std::unique_ptr<sync::Lock>> lock(params.buckets);
  for (unsigned b = 0; b < params.buckets; ++b) {
    const NodeId home = static_cast<NodeId>(b % nprocs);
    bucket[b] = m.alloc().allocate_on(home, mem::kWordSize,
                                      "hist.bucket" + std::to_string(b));
    lock[b] = harness::make_lock(m, params.lock, home);
  }

  // Oracle.
  std::vector<std::uint64_t> expect(params.buckets, 0);
  for (NodeId q = 0; q < nprocs; ++q) {
    sim::Rng rng(sim::Rng::derive(params.seed, q));
    for (unsigned i = 0; i < params.items_per_proc; ++i)
      ++expect[rng.below(params.buckets)];
  }

  KernelResult res;
  res.cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(params.seed, c.id()));
    for (unsigned i = 0; i < params.items_per_proc; ++i) {
      const unsigned b = static_cast<unsigned>(rng.below(params.buckets));
      co_await c.think(10);  // classify the item
      co_await lock[b]->acquire(c);
      const std::uint64_t v = co_await c.load(bucket[b]);
      co_await c.store(bucket[b], v + 1);
      co_await lock[b]->release(c);
    }
  });

  res.correct = true;
  for (unsigned b = 0; b < params.buckets && res.correct; ++b)
    res.correct = m.peek(bucket[b]) == expect[b];
  res.counters = m.counters();
  harness::capture_obs(res, m);
  return res;
}

// ---------------------------------------------------------------------
// N-body step
// ---------------------------------------------------------------------

KernelResult run_nbody_step(const harness::MachineConfig& cfg,
                            const NbodyParams& params) {
  harness::Machine m(cfg);
  const unsigned nprocs = cfg.nprocs;

  sync::TicketLock lock(m);
  sync::DisseminationBarrier barrier(m);
  sync::ParallelReduction par(m, lock, barrier);
  sync::SequentialReduction seq(m, barrier);

  // Oracle: running max over the same velocity streams.
  std::uint64_t running = 0;
  std::vector<std::uint64_t> oracle;
  {
    std::vector<sim::Rng> rngs;
    std::vector<std::uint64_t> vel(nprocs * params.bodies_per_proc);
    for (NodeId q = 0; q < nprocs; ++q) {
      sim::Rng rng(sim::Rng::derive(params.seed, q));
      for (unsigned b = 0; b < params.bodies_per_proc; ++b)
        vel[q * params.bodies_per_proc + b] = rng.below(1000);
      rngs.push_back(rng);
    }
    for (int t = 0; t < params.steps; ++t) {
      for (NodeId q = 0; q < nprocs; ++q) {
        std::uint64_t local = 0;
        for (unsigned b = 0; b < params.bodies_per_proc; ++b) {
          auto& v = vel[q * params.bodies_per_proc + b];
          v += rngs[q].below(50);
          local = std::max(local, v);
        }
        running = std::max(running, local);
      }
      oracle.push_back(running);
    }
  }

  bool ok = true;
  KernelResult res;
  res.cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(params.seed, c.id()));
    std::vector<std::uint64_t> vel(params.bodies_per_proc);
    for (auto& v : vel) v = rng.below(1000);
    for (int t = 0; t < params.steps; ++t) {
      std::uint64_t local = 0;
      for (auto& v : vel) {
        v += rng.below(50);
        local = std::max(local, v);
      }
      co_await c.think(params.bodies_per_proc * 8);
      std::uint64_t global = 0;
      if (params.parallel_reduction)
        co_await par.reduce(c, local, &global);
      else
        co_await seq.reduce(c, local, &global);
      if (global != oracle[static_cast<std::size_t>(t)]) ok = false;
    }
  });
  res.correct = ok;
  res.counters = m.counters();
  harness::capture_obs(res, m);
  return res;
}

// ---------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------

KernelResult run_pipeline(const harness::MachineConfig& cfg,
                          const PipelineParams& params) {
  harness::Machine m(cfg);
  const unsigned nprocs = cfg.nprocs;

  // nprocs stages connected by nprocs-1 SPSC rings. Ring i sits on the
  // consumer's node (stage i+1): slots + head (producer writes) + tail
  // (consumer writes), each in its own block to keep the flag traffic
  // clean producer/consumer pairs.
  const unsigned slots = params.queue_slots;
  struct Ring {
    Addr data;
    Addr head;  ///< items produced so far
    Addr tail;  ///< items consumed so far
  };
  std::vector<Ring> ring(nprocs > 1 ? nprocs - 1 : 0);
  for (unsigned i = 0; i + 1 < nprocs; ++i) {
    const NodeId home = static_cast<NodeId>(i + 1);
    ring[i].data = m.alloc().allocate_on(home, slots * mem::kWordSize,
                                         "pipe.data" + std::to_string(i));
    ring[i].head = m.alloc().allocate_on(home, mem::kWordSize,
                                         "pipe.head" + std::to_string(i));
    ring[i].tail = m.alloc().allocate_on(home, mem::kWordSize,
                                         "pipe.tail" + std::to_string(i));
  }

  // Stage transform: x -> 3x + stage. Oracle for the final checksum.
  std::uint64_t expect = 0;
  for (unsigned it = 0; it < params.items; ++it) {
    std::uint64_t x = it + 1;
    for (unsigned s = 1; s < nprocs; ++s) x = 3 * x + s;
    expect += x;
  }
  const Addr sink = m.alloc().allocate_on(nprocs - 1, mem::kWordSize, "pipe.sink");

  KernelResult res;
  res.cycles = m.run_all([&, slots](cpu::Cpu& c) -> sim::Task {
    const NodeId me = c.id();
    const unsigned items = params.items;

    if (m.nprocs() == 1) {
      // Degenerate single-stage pipeline: transform and sum locally.
      std::uint64_t sum = 0;
      for (unsigned it = 0; it < items; ++it) sum += it + 1;
      co_await c.store(sink, sum);
      co_await c.fence();
      co_return;
    }

    std::uint64_t checksum = 0;
    for (unsigned it = 0; it < items; ++it) {
      std::uint64_t x;
      if (me == 0) {
        x = it + 1;  // source stage generates
      } else {
        // Consume from ring[me-1]: wait until head > consumed.
        const Ring& in = ring[me - 1];
        co_await c.spin_until(in.head, [it](std::uint64_t h) { return h > it; });
        x = co_await c.load(in.data + (it % slots) * mem::kWordSize);
        x = 3 * x + me;  // stage transform
        co_await c.think(12);
        co_await c.store(in.tail, it + 1);  // free the slot
      }
      if (me + 1 < m.nprocs()) {
        // Produce into ring[me]: wait for a free slot, write, publish.
        const Ring& out = ring[me];
        co_await c.spin_until(out.tail, [it, slots](std::uint64_t t) {
          return it < t + slots;
        });
        co_await c.store(out.data + (it % slots) * mem::kWordSize, x);
        co_await c.fence();  // data visible before the publish
        co_await c.store(out.head, it + 1);
      } else {
        checksum += x;
      }
    }
    if (me + 1 == m.nprocs()) {
      co_await c.store(sink, checksum);
      co_await c.fence();
    }
  });

  res.correct = nprocs == 1
                    ? m.peek(sink) == params.items * (params.items + 1ull) / 2
                    : m.peek(sink) == expect;
  res.counters = m.counters();
  harness::capture_obs(res, m);
  return res;
}

// ---------------------------------------------------------------------
// Matmul
// ---------------------------------------------------------------------

KernelResult run_matmul(const harness::MachineConfig& cfg, const MatmulParams& params) {
  harness::Machine m(cfg);
  const unsigned nprocs = cfg.nprocs;
  auto barrier = harness::make_barrier(m, params.barrier);

  const unsigned n = params.dim;
  // Row-major shared matrices; A and C rows homed at their owning
  // processor's node, B interleaved (read by everyone).
  std::vector<Addr> a_row(n), c_row(n);
  const Addr b_base =
      m.alloc().allocate(n * n * mem::kWordSize, mem::kBlockSize, "mm.B");
  const auto owner = [&](unsigned row) {
    return static_cast<NodeId>(row * nprocs / n);
  };
  for (unsigned r = 0; r < n; ++r) {
    a_row[r] = m.alloc().allocate_on(owner(r), n * mem::kWordSize,
                                     "mm.A.row" + std::to_string(r));
    c_row[r] = m.alloc().allocate_on(owner(r), n * mem::kWordSize,
                                     "mm.C.row" + std::to_string(r));
  }

  // Host-side oracle over the same deterministic fill.
  const auto a_val = [&](unsigned r, unsigned c) {
    return sim::Rng(params.seed ^ (r * 131u + c)).next() % 97;
  };
  const auto b_val = [&](unsigned r, unsigned c) {
    return sim::Rng(~params.seed ^ (r * 17u + c)).next() % 89;
  };
  std::vector<std::uint64_t> expect(n * n, 0);
  for (unsigned r = 0; r < n; ++r)
    for (unsigned c = 0; c < n; ++c) {
      std::uint64_t acc = 0;
      for (unsigned k = 0; k < n; ++k) acc += a_val(r, k) * b_val(k, c);
      expect[r * n + c] = acc;
    }

  KernelResult res;
  res.cycles = m.run_all([&, n](cpu::Cpu& c) -> sim::Task {
    const NodeId me = c.id();
    // Fill phase: each processor writes its band of A; processor 0 fills B.
    for (unsigned r = 0; r < n; ++r) {
      if (owner(r) != me) continue;
      for (unsigned k = 0; k < n; ++k)
        co_await c.store(a_row[r] + k * mem::kWordSize, a_val(r, k));
    }
    if (me == 0) {
      for (unsigned r = 0; r < n; ++r)
        for (unsigned k = 0; k < n; ++k)
          co_await c.store(b_base + (r * n + k) * mem::kWordSize, b_val(r, k));
    }
    co_await c.fence();
    co_await barrier->wait(c);

    // Multiply phase: C's bands, reading the shared B.
    for (unsigned r = 0; r < n; ++r) {
      if (owner(r) != me) continue;
      for (unsigned col = 0; col < n; ++col) {
        std::uint64_t acc = 0;
        for (unsigned k = 0; k < n; ++k) {
          const std::uint64_t av = co_await c.load(a_row[r] + k * mem::kWordSize);
          const std::uint64_t bv =
              co_await c.load(b_base + (k * n + col) * mem::kWordSize);
          acc += av * bv;
          co_await c.think(2);  // multiply-accumulate
        }
        co_await c.store(c_row[r] + col * mem::kWordSize, acc);
      }
    }
    co_await c.fence();
    co_await barrier->wait(c);
  });

  res.correct = true;
  for (unsigned r = 0; r < n && res.correct; ++r)
    for (unsigned col = 0; col < n && res.correct; ++col)
      res.correct = m.peek(c_row[r] + col * mem::kWordSize) == expect[r * n + col];
  res.counters = m.counters();
  harness::capture_obs(res, m);
  return res;
}

} // namespace ccsim::apps
