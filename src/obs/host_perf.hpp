// Host-performance telemetry: measure the simulator itself, not the guest.
//
// Every other observability layer (traces, cycle ledgers, interval samples)
// attributes *simulated* cycles. This subsystem is the same cost-accounting
// idea applied one level down: how fast does the host execute the discrete-
// event loop, where does host time go, and how hard is the event queue being
// worked? It exists so simulator-core optimizations (such as the event
// kernel's calendar ring and allocation pools, DESIGN.md §6) can be *gated*
// like guest-latency regressions instead of eyeballed.
//
// What one run's HostPerfReport carries:
//   - throughput: simulated cycles/sec and executed events/sec, from one
//     steady_clock interval spanning Machine::run;
//   - event-queue statistics: a depth histogram sampled at deterministic
//     *simulated*-cycle boundaries (so the histogram itself is byte-stable
//     across hosts and runs) plus the true peak depth;
//   - allocation counters: protocol messages injected, coroutine frames
//     created, events scheduled -- served from the message slabs, the
//     frame pool and the event queue's slot arena, not the heap;
//   - coarse host-time attribution over subsystems (event loop, protocol
//     handlers, network routing, obs hooks) via the same exclusive
//     scope-stack scheme as obs::CycleLedger, but charging host nanoseconds
//     instead of simulated cycles.
//
// The no-guest-perturbation rule: the collector is a pure observer. It
// schedules no events and is consulted only from host-side hook points, so
// every simulated result (cycles, counters, traffic, JSON minus the opt-in
// "host" section) is byte-identical with host metrics on or off. The
// converse does NOT hold -- host readings are wall-clock and vary run to
// run -- which is why the "host" section is opt-in and excluded from all
// byte-identity checks (docs/schema.md).
#pragma once

#include "sim/types.hpp"
#include "stats/histogram.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ccsim::obs {

/// Where host time goes. Exclusive attribution: a scope's nanoseconds do
/// not include its nested scopes (Network time spent inside a Protocol
/// handler is charged to Network, not Protocol).
enum class HostCat : std::uint8_t {
  EventLoop,  ///< dispatch, coroutine execution, everything unattributed
  Protocol,   ///< cache/home controller message handling (Node::deliver)
  Network,    ///< routing + contention arithmetic (Network::send)
  ObsHooks,   ///< sampler boundary cuts, invariant final audit
  Count_
};
inline constexpr std::size_t kHostCats = static_cast<std::size_t>(HostCat::Count_);

[[nodiscard]] std::string_view to_string(HostCat c) noexcept;

/// Immutable host-side profile of one run, taken after Machine::run.
/// Assembled by Machine::host_report(); enabled() == false (all zeros)
/// unless ObsConfig::host_metrics was set.
struct HostPerfReport {
  /// Version of the serialized "host" JSON section (docs/schema.md).
  static constexpr std::uint64_t kSchema = 1;

  bool on = false;              ///< was the collector attached?
  std::uint64_t host_ns = 0;    ///< host nanoseconds spent inside run()
  Cycle sim_cycles = 0;         ///< simulated cycles the run covered
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;

  // Allocation streams, served from pools (DESIGN.md §6).
  std::uint64_t messages = 0;   ///< protocol messages injected (incl. local)
  std::uint64_t frames = 0;     ///< coroutine frames created during run()

  // Event-queue statistics.
  stats::LatencyHistogram queue_depth;  ///< pending-event samples
  std::uint64_t queue_peak = 0;         ///< true peak over every event
  Cycle queue_sample_interval = 0;      ///< simulated-cycle sampling period

  /// Exclusive host-time attribution; sums to host_ns by construction.
  std::array<std::uint64_t, kHostCats> ns_by{};

  [[nodiscard]] bool enabled() const noexcept { return on; }
  [[nodiscard]] double seconds() const noexcept { return static_cast<double>(host_ns) * 1e-9; }
  [[nodiscard]] double ms() const noexcept { return static_cast<double>(host_ns) * 1e-6; }
  /// Simulated cycles per host second (0 when the run was too fast to time).
  [[nodiscard]] double cycles_per_sec() const noexcept;
  /// Executed events per host second.
  [[nodiscard]] double events_per_sec() const noexcept;
  /// Fraction of host_ns charged to `c`, in [0, 1].
  [[nodiscard]] double share(HostCat c) const noexcept;

  /// Fold another run's report into this one (ccperf aggregate row):
  /// times/counters add, the queue histogram merges, peak takes the max.
  void merge(const HostPerfReport& o);
};

/// The live collector one Machine owns while running. All hooks are
/// host-side only; a null collector pointer makes every hook a no-op
/// (same convention as CycleLedger).
class HostPerfCollector {
public:
  /// `queue_sample_interval` is in simulated cycles and must be > 0; the
  /// depth histogram gets one sample per elapsed interval boundary.
  explicit HostPerfCollector(Cycle queue_sample_interval);

  /// Stamp the run start; captures the thread's coroutine-frame baseline.
  void run_begin();
  /// Charge the tail and freeze the totals. Call exactly once.
  void run_end();

  /// Enter/leave an attribution scope (use ScopedHostCat).
  void push(HostCat c);
  void pop();

  /// Called before executing the event at simulated time `t` with `pending`
  /// events in the queue: tracks the peak and cuts one histogram sample per
  /// crossed interval boundary. Pure sim-time logic -- deterministic.
  void before_event(Cycle t, std::size_t pending);

  /// The collector's own readings (run_* / queue / frames). The Machine
  /// fills in the sim-side fields (cycles, events, messages).
  [[nodiscard]] HostPerfReport report() const;

private:
  using Clock = std::chrono::steady_clock;

  /// Charge now-last_ to `c` and advance the stamp.
  void charge(HostCat c);
  [[nodiscard]] HostCat current() const noexcept {
    return stack_.empty() ? HostCat::EventLoop : stack_.back();
  }

  Clock::time_point last_{};
  std::array<std::uint64_t, kHostCats> ns_by_{};
  std::vector<HostCat> stack_;

  Cycle interval_;
  Cycle next_boundary_;
  std::size_t last_pending_ = 0;
  stats::LatencyHistogram depth_;
  std::uint64_t peak_ = 0;

  std::uint64_t frames_at_begin_ = 0;
  std::uint64_t frames_ = 0;
  bool running_ = false;
  bool done_ = false;
};

/// RAII attribution scope. Null collector = no-op, so call sites stay
/// unconditional (mirrors obs::ScopedPhase).
class ScopedHostCat {
public:
  ScopedHostCat(HostPerfCollector* c, HostCat cat) : c_(c) {
    if (c_) c_->push(cat);
  }
  ~ScopedHostCat() {
    if (c_) c_->pop();
  }
  ScopedHostCat(const ScopedHostCat&) = delete;
  ScopedHostCat& operator=(const ScopedHostCat&) = delete;

private:
  HostPerfCollector* c_;
};

} // namespace ccsim::obs
