// The paper's synthetic programs (section 4) packaged as one-call
// experiments: lock loops, barrier loops, and reduction loops, each
// returning simulated cycles, the paper's per-operation latency metric,
// and the categorized traffic counters.
#pragma once

#include "harness/machine.hpp"
#include "stats/counters.hpp"
#include "stats/histogram.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

namespace ccsim::sync {
class Lock;
class Barrier;
} // namespace ccsim::sync

namespace ccsim::harness {

enum class LockKind { Ticket, Mcs, UcMcs };
enum class BarrierKind { Central, Dissemination, Tree, CombiningTree };
enum class ReductionKind { Parallel, Sequential };

inline constexpr LockKind kLockKinds[] = {LockKind::Ticket, LockKind::Mcs,
                                           LockKind::UcMcs};
inline constexpr BarrierKind kBarrierKinds[] = {
    BarrierKind::Central, BarrierKind::Dissemination, BarrierKind::Tree,
    BarrierKind::CombiningTree};
inline constexpr ReductionKind kReductionKinds[] = {ReductionKind::Parallel,
                                                    ReductionKind::Sequential};

/// Long names ("ticket", "central", "parallel", ...).
[[nodiscard]] std::string_view to_string(LockKind k) noexcept;
[[nodiscard]] std::string_view to_string(BarrierKind k) noexcept;
[[nodiscard]] std::string_view to_string(ReductionKind k) noexcept;

/// The paper's bar-label tags, used in cell names and on the command line:
/// tk/MCS/uc, cb/db/tb/ct, pr/sr.
[[nodiscard]] std::string_view tag(LockKind k) noexcept;
[[nodiscard]] std::string_view tag(BarrierKind k) noexcept;
[[nodiscard]] std::string_view tag(ReductionKind k) noexcept;

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
  std::vector<obs::HotBlock> hot;
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

/// The lock of `kind` on `m`, its shared words homed at node `home`.
[[nodiscard]] std::unique_ptr<sync::Lock> make_lock(Machine& m, LockKind kind,
                                                    NodeId home = 0);
/// The barrier of `kind` on `m`.
[[nodiscard]] std::unique_ptr<sync::Barrier> make_barrier(Machine& m, BarrierKind kind);

/// Fill `r`'s observability sections (samples through sharing) from a
/// machine that has finished its run.
void capture_obs(RunResult& r, const Machine& m);

/// Lock experiment (section 4.1): each processor acquires, holds for 50
/// cycles, releases, in a tight loop executed total_acquires/P times.
/// avg_latency = cycles/total_acquires - 50 (figure 8).
struct LockParams {
  std::uint64_t total_acquires = 32000;
  /// Pseudorandom bounded pause after each release (0 = the paper's tight
  /// loop; >0 = the reduced-contention variant, pause in [1, value]).
  Cycle random_pause_max = 0;
  /// If nonzero, overrides random_pause_max with a deterministic pause of
  /// the hold time * work_ratio (the "work outside/inside = P" variant).
  unsigned work_ratio = 0;
  std::uint64_t seed = 0x5eed;
};

RunResult run_lock_experiment(const MachineConfig& cfg, LockKind kind,
                              const LockParams& params);

/// Builds the lock a lock experiment runs on, from the experiment's Machine.
using LockFactory = std::function<std::unique_ptr<sync::Lock>(Machine&)>;

/// The same experiment on the lock `make` builds (TAS/TTAS, layout variants).
RunResult run_lock_experiment(const MachineConfig& cfg, const LockFactory& make,
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
/// reduction's own traffic is measured; every round's result is checked
/// against a host-side oracle. avg_latency = cycles/rounds (figure 14).
/// `imbalance_max` > 0 adds a pseudorandom pre-reduction delay in
/// [0, value] to reduce lock contention (the paper's load imbalance
/// variant).
struct ReductionParams {
  std::uint64_t rounds = 5000;
  Cycle imbalance_max = 0;
  std::uint64_t seed = 0xbeef;
};

RunResult run_reduction_experiment(const MachineConfig& cfg, ReductionKind kind,
                                   const ReductionParams& params);

} // namespace ccsim::harness
