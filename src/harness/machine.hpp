// Machine: builds and runs one simulated multiprocessor.
//
// Wires together the event kernel, network, per-node cache/home controllers
// for the chosen protocol, the traffic classifiers, and one processor per
// node; runs a set of coroutine programs to completion and reports cycles
// and categorized traffic.
#pragma once

#include "cpu/processor.hpp"
#include "net/network.hpp"
#include "obs/cycle_accounting.hpp"
#include "obs/host_perf.hpp"
#include "obs/invariants.hpp"
#include "obs/sampler.hpp"
#include "obs/sharing.hpp"
#include "obs/trace.hpp"
#include "proto/node.hpp"
#include "proto/protocol.hpp"
#include "sim/event_queue.hpp"
#include "stats/counters.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccsim::harness {

/// The run stopped making forward progress: the event queue drained with
/// programs still waiting (lost wakeup), or no processor completed a
/// memory operation for watchdog_stall_cycles (livelock). what() carries
/// the full diagnostic dump: stuck processors, per-node in-flight messages
/// and controller occupancy, and the trace tail.
class DeadlockError : public std::runtime_error {
public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Simulated time passed max_cycles with programs unfinished. The run may
/// still have been progressing; what() carries the same dump as
/// DeadlockError.
class BudgetError : public std::runtime_error {
public:
  explicit BudgetError(const std::string& what) : std::runtime_error(what) {}
};

/// Observability attachments. Everything here is off by default: with the
/// defaults a Machine behaves (and its runs cost) exactly as before.
struct ObsConfig {
  /// Snapshot counter deltas every N cycles (0 = no sampling).
  Cycle sample_interval = 0;
  /// Attribute misses/updates/invalidations/home transactions to blocks
  /// (the sharing tracker's hot-block list; see Machine::hot_blocks()).
  bool hot_blocks = false;
  /// How many blocks Machine::hot_blocks() reports.
  std::size_t hot_top_k = 16;
  /// Structured trace sink (JSONL, Perfetto, ...). Non-owning; must outlive
  /// the Machine. Setting a sink enables tracing (see Machine::trace()).
  obs::TraceSink* sink = nullptr;
  /// Attach the cycle-accounting profiler: attribute every simulated cycle
  /// of every processor to a cost category and collect per-(construct,
  /// phase) latency histograms. See Machine::profile().
  bool profile = false;
  /// Run the coherence-invariant checker (obs/invariants.hpp): assert the
  /// single-writable-copy and value-history invariants on the fly and audit
  /// directories, caches and data against shadow memory at the end of the
  /// run. Pure observer -- it schedules no events, so simulated cycle
  /// counts are identical with it on or off. Works under every protocol:
  /// it audits every cache of every node, three per Hybrid node.
  bool check_invariants = false;
  /// Collect host-performance telemetry (obs/host_perf.hpp): simulator
  /// throughput, event-queue depth statistics, allocation counters, and
  /// host-time attribution across subsystems. Pure host-side observer:
  /// simulated cycles, counters and run JSON (minus the opt-in "host"
  /// section) are byte-identical with it on or off.
  bool host_metrics = false;
  /// Classify per-block sharing patterns and advise a protocol
  /// (obs/sharing.hpp). Pure observer: simulated cycles, counters and run
  /// JSON (minus the opt-in "sharing" section) are byte-identical with it
  /// on or off. Works under every protocol, Hybrid included.
  bool sharing = false;
};

struct MachineConfig {
  /// Nodes, in [1, mem::kMaxNodes]; Machine's constructor rejects others.
  unsigned nprocs = 32;
  proto::Protocol protocol = proto::Protocol::WI;
  std::size_t cache_bytes = 64 * 1024;  ///< direct-mapped, 64 B blocks
  unsigned cu_threshold = 4;  ///< competitive-update invalidation threshold
  net::Network::Params net{};
  /// Stop the run with BudgetError if simulated time exceeds this.
  Cycle max_cycles = 4'000'000'000ULL;
  /// Watchdog: throw DeadlockError if no processor completes a memory
  /// operation for this many simulated cycles (0 = off). think() cycles do
  /// not count as progress, so the bound must exceed the longest think in
  /// the workload plus the worst contended-operation latency.
  Cycle watchdog_stall_cycles = 0;
  /// Memory consistency model (the paper's machine is release consistent).
  proto::Consistency consistency = proto::Consistency::Release;
  /// Observability: sampling, hot-block attribution, trace sinks.
  ObsConfig obs{};
};

class Machine {
public:
  using Program = std::function<sim::Task(cpu::Cpu&)>;

  /// Throws std::invalid_argument for nprocs outside [1, mem::kMaxNodes].
  explicit Machine(MachineConfig cfg);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Run one program per processor (programs.size() <= nprocs) until all
  /// complete; classifies remaining update lifetimes as termination.
  /// Returns the total simulated cycles. Throws on deadlock or timeout.
  Cycle run(const std::vector<Program>& programs);

  /// Convenience: the same program body on every processor.
  Cycle run_all(const Program& program);

  /// Initialize simulated shared memory before the run (no traffic).
  void poke(Addr addr, std::uint64_t value, std::size_t size = mem::kWordSize);

  /// Hybrid machines (protocol == Protocol::Hybrid): bind every block of
  /// [addr, addr+size) to WI, PU or CU; the block's allocator domain
  /// becomes that Protocol value. Regions left unbound run WI. Must be
  /// called before the run and never across a block already bound
  /// differently. Throws std::logic_error on a pure machine and
  /// std::invalid_argument for Protocol::Hybrid.
  void bind_protocol(Addr addr, std::size_t size, proto::Protocol p);

  /// Read simulated shared memory after the run (home memory; for checking
  /// results the coherence protocol must have made globally visible).
  [[nodiscard]] std::uint64_t peek(Addr addr, std::size_t size = mem::kWordSize);

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] sim::EventQueue& queue() noexcept { return q_; }
  [[nodiscard]] mem::SharedAllocator& alloc() noexcept { return alloc_; }
  /// Every home's directory entries and memory contents.
  [[nodiscard]] const mem::HomeTable& homes() const noexcept { return homes_; }
  [[nodiscard]] stats::Counters& counters() noexcept { return counters_; }
  [[nodiscard]] cpu::Cpu& cpu(NodeId i) { return procs_.at(i)->cpu(); }
  [[nodiscard]] proto::Node& node(NodeId i) { return *nodes_.at(i); }
  [[nodiscard]] unsigned nprocs() const noexcept { return cfg_.nprocs; }
  /// The attached trace log (the last protocol events, kept as records and
  /// formatted into deadlock reports), or nullptr when neither a trace
  /// sink nor the invariant checker switched tracing on.
  [[nodiscard]] obs::TraceLog* trace() noexcept { return trace_.get(); }

  /// Per-interval counter samples (empty unless obs.sample_interval > 0).
  [[nodiscard]] const obs::IntervalSeries& samples() const noexcept {
    return samples_;
  }
  /// Top-K hottest blocks with allocator-assigned names (empty unless
  /// obs.hot_blocks). Valid after run().
  [[nodiscard]] std::vector<obs::HotBlock> hot_blocks() const;

  /// The run's cycle accounting (default-constructed snapshot with
  /// enabled() == false unless obs.profile). Valid after run().
  [[nodiscard]] obs::ProfileSnapshot profile() const;

  /// Invariant checks performed (0 unless obs.check_invariants).
  [[nodiscard]] std::uint64_t invariant_checks() const noexcept {
    return checker_ ? checker_->checks() : 0;
  }

  /// The run's host-performance report (default-constructed snapshot with
  /// enabled() == false unless obs.host_metrics). Valid after run().
  [[nodiscard]] obs::HostPerfReport host_report() const;

  /// The run's sharing-pattern report (default-constructed snapshot with
  /// enabled() == false unless obs.sharing). Valid after run().
  [[nodiscard]] obs::SharingReport sharing_report() const;

private:
  [[nodiscard]] std::string diagnose(const std::string& what, unsigned remaining,
                                     std::size_t nprograms) const;

  MachineConfig cfg_;
  sim::EventQueue q_;
  std::unique_ptr<obs::TraceLog> trace_;
  stats::Counters counters_;
  mem::SharedAllocator alloc_;
  mem::HomeTable homes_;
  std::unique_ptr<obs::InvariantChecker> checker_;
  /// Attached when obs.sharing or obs.hot_blocks is set; each report reads
  /// from it only when its own flag is.
  std::unique_ptr<obs::SharingTracker> tracker_;
  std::unique_ptr<obs::CycleLedger> ledger_;
  /// The attached observers above, checker first. Filled once, before the
  /// classifiers and ctx_ take spans over it, and never changed after.
  std::vector<obs::Observer*> observers_;
  stats::MissClassifier misses_;
  stats::UpdateClassifier updates_;
  net::Network net_;
  std::unique_ptr<obs::HostPerfCollector> host_;  ///< must precede ctx_
  proto::ProtocolContext ctx_;
  obs::IntervalSeries samples_;
  std::vector<std::unique_ptr<proto::Node>> nodes_;
  std::vector<std::unique_ptr<cpu::Processor>> procs_;
  std::uint64_t progress_ = 0;  ///< completed memory ops (watchdog)
  bool ran_ = false;
};

} // namespace ccsim::harness
