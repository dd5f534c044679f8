// Application kernels: small whole-program workloads in the style of the
// SPLASH-2 kernels the paper's methodology targets (its figure-6 snippet
// is lifted from Barnes-Hut). Each kernel builds a machine from the config
// it is given, runs to completion, CHECKS ITS NUMERICAL RESULT against a
// host-side oracle, and returns cycles + categorized traffic -- so
// protocol/construct choices can be compared at application level
// (bench/app_suite) with correctness enforced on every run.
//
// Kernels:
//   - sor:        red-black successive over-relaxation on a 1D rod;
//                 barrier-per-phase, halo exchange between neighbors.
//   - histogram:  each processor classifies a private stream into shared
//                 buckets; bucket updates guarded by a sharded lock array.
//   - nbody_step: force-accumulation timesteps with a global max-velocity
//                 reduction (parallel or sequential) deciding dt.
//   - pipeline:   a chain of single-producer single-consumer ring buffers;
//                 each stage transforms items and passes them on --
//                 pure producer/consumer flag traffic.
#pragma once

#include "harness/machine.hpp"
#include "harness/workloads.hpp"

#include <cstdint>

namespace ccsim::apps {

/// Outcome of one kernel run: cycles, counters and the observer sections
/// the config's ObsConfig switched on (avg_latency and latency stay empty),
/// plus `correct`, the oracle check; benches and tests must treat false as
/// a hard failure.
struct KernelResult : harness::RunResult {
  bool correct = false;
};

struct SorParams {
  unsigned cells_per_proc = 24;
  int sweeps = 32;
  harness::BarrierKind barrier = harness::BarrierKind::Dissemination;
};
KernelResult run_sor(const harness::MachineConfig& cfg, const SorParams& params);

struct HistogramParams {
  unsigned buckets = 16;        ///< shared buckets (one lock per bucket)
  unsigned items_per_proc = 64; ///< classified stream length per processor
  harness::LockKind lock = harness::LockKind::Ticket;
  std::uint64_t seed = 99;
};
KernelResult run_histogram(const harness::MachineConfig& cfg,
                           const HistogramParams& params);

struct NbodyParams {
  unsigned bodies_per_proc = 12;
  int steps = 16;
  bool parallel_reduction = true;  ///< figure 6 vs figure 7 strategy
  std::uint64_t seed = 7;
};
KernelResult run_nbody_step(const harness::MachineConfig& cfg, const NbodyParams& params);

struct PipelineParams {
  unsigned items = 128;        ///< items fed into the first stage
  unsigned queue_slots = 4;    ///< ring-buffer capacity between stages
};
KernelResult run_pipeline(const harness::MachineConfig& cfg,
                          const PipelineParams& params);

struct MatmulParams {
  unsigned dim = 8;  ///< square matrix dimension (rows split across procs)
  harness::BarrierKind barrier = harness::BarrierKind::Dissemination;
  std::uint64_t seed = 17;
};
/// C = A x B over shared matrices: each processor owns a band of C's rows,
/// reads all of B (read-shared) and its band of A; a barrier separates the
/// fill phase from the multiply.
KernelResult run_matmul(const harness::MachineConfig& cfg, const MatmulParams& params);

} // namespace ccsim::apps
