// The paper's synthetic programs (section 4) packaged as one-call
// experiments: lock loops, barrier loops, and reduction loops, each
// returning simulated cycles, the paper's per-operation latency metric,
// and the categorized traffic counters.
#pragma once

#include "harness/machine.hpp"
#include "stats/counters.hpp"
#include "stats/histogram.hpp"

#include <cstdint>
#include <string_view>

namespace ccsim::harness {

enum class LockKind { Ticket, Mcs, UcMcs };
enum class BarrierKind { Central, Dissemination, Tree, CombiningTree };
enum class ReductionKind { Parallel, Sequential };

[[nodiscard]] std::string_view to_string(LockKind k) noexcept;
[[nodiscard]] std::string_view to_string(BarrierKind k) noexcept;
[[nodiscard]] std::string_view to_string(ReductionKind k) noexcept;

struct RunResult {
  Cycle cycles = 0;          ///< total simulated execution time
  double avg_latency = 0.0;  ///< the paper's per-operation latency metric
  stats::Counters counters;
  /// Distribution of individual operation latencies (lock experiments:
  /// per-acquire wait; barrier experiments: per-episode period).
  stats::LatencyHistogram latency;
  /// Per-interval counter samples (empty unless obs.sample_interval > 0).
  obs::IntervalSeries samples;
  /// Hottest blocks with allocator names (empty unless obs.hot_blocks).
  std::vector<obs::HotBlockTable::Row> hot;
  /// Cycle accounting (enabled() == false unless obs.profile).
  obs::ProfileSnapshot profile;
  /// Coherence-invariant checks performed (0 unless obs.check_invariants).
  std::uint64_t invariant_checks = 0;
  /// Host-performance telemetry (enabled() == false unless
  /// obs.host_metrics). Never affects the simulated fields above.
  obs::HostPerfReport host;
  /// Sharing-pattern classification and protocol advice (enabled() ==
  /// false unless obs.sharing). Never affects the simulated fields above.
  obs::SharingReport sharing;
};

/// Fill `r`'s observability sections (samples through sharing) from a
/// machine that has finished its run.
void capture_obs(RunResult& r, const Machine& m);

/// Lock experiment (section 4.1): each processor acquires, holds for
/// `hold_cycles`, releases, in a tight loop executed total_acquires/P
/// times. avg_latency = cycles/total_acquires - hold_cycles (figure 8).
struct LockParams {
  std::uint64_t total_acquires = 32000;
  Cycle hold_cycles = 50;
  /// Pseudorandom bounded pause after each release (0 = the paper's tight
  /// loop; >0 = the reduced-contention variant, pause in [1, value]).
  Cycle random_pause_max = 0;
  /// If nonzero, overrides random_pause_max with a deterministic pause of
  /// hold_cycles * work_ratio (the "work outside/inside = P" variant).
  unsigned work_ratio = 0;
  std::uint64_t seed = 0x5eed;
};

RunResult run_lock_experiment(const MachineConfig& cfg, LockKind kind,
                              const LockParams& params);

/// Barrier experiment (section 4.2): `episodes` barrier episodes in a
/// tight loop. avg_latency = cycles/episodes (figure 11).
struct BarrierParams {
  std::uint64_t episodes = 5000;
};

RunResult run_barrier_experiment(const MachineConfig& cfg, BarrierKind kind,
                                 const BarrierParams& params);

/// Reduction experiment (section 4.3): `rounds` max-reductions in a tight
/// loop, synchronized by zero-traffic magic lock/barrier so only the
/// reduction's own traffic is measured. avg_latency = cycles/rounds
/// (figure 14). `imbalance_max` > 0 adds a pseudorandom pre-reduction
/// delay in [0, value] to reduce lock contention (the paper's load
/// imbalance variant).
struct ReductionParams {
  std::uint64_t rounds = 5000;
  Cycle imbalance_max = 0;
  std::uint64_t seed = 0xbeef;
  bool verify = true;  ///< check every round's result against the oracle
};

RunResult run_reduction_experiment(const MachineConfig& cfg, ReductionKind kind,
                                   const ReductionParams& params);

} // namespace ccsim::harness
