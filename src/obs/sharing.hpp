// Per-block sharing-pattern classification and protocol advice.
//
// SharingTracker is an opt-in obs::Observer (ObsConfig::sharing) fed by the
// same transition hooks as the invariant checker plus two the checker does
// not consume: invalidation sends at the WI home and update deliveries at
// the PU/CU caches. It schedules no events and sends no messages, so
// simulated cycles and counters are byte-identical with it on or off
// (DESIGN.md section 13's no-guest-perturbation rule; section 14 describes
// this subsystem).
//
// Per block it records:
//   - write runs: maximal sequences of globally-ordered writes by one node;
//   - reader sets per write interval: which nodes read the block between
//     two consecutive globally-ordered writes (set semantics, so a spinner
//     re-reading ten thousand times counts once per interval -- this is
//     what makes the numbers comparable across protocols);
//   - per-word accessor bitmaps, separating true sharing from false
//     sharing within one 64-byte block;
//   - invalidations issued (WI) and update deliveries (PU/CU), including
//     *wasted* updates: deliveries the receiving cache never read before
//     the word was written again (or before the run ended).
//
// A classifier folds these into the taxonomy the paper explains its results
// with -- private, read-only, read-mostly, migratory, producer/consumer,
// widely-shared, false-shared -- and a cost model replays the observed
// event counts against WI/PU/CU cost parameters to recommend a protocol
// per block, per symbolic allocation, and for the run as a whole.
// tools/ccadvise cross-validates the recommendation against measured
// sweeps; thresholds and the cost model are documented in DESIGN.md §14.
#pragma once

#include "mem/address.hpp"
#include "mem/directory.hpp"
#include "obs/observer.hpp"
#include "proto/protocol.hpp"
#include "sim/types.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::mem {
class SharedAllocator;
}

namespace ccsim::obs {

/// The taxonomy (paper sections 5-7; DESIGN.md section 14). Mixed is the
/// fall-through for blocks matching no clean pattern.
enum class SharingPattern : std::uint8_t {
  Private,           ///< one node accounts for every access
  ReadOnly,          ///< never written (after poke-time initialization)
  ReadMostly,        ///< written, but reads dwarf writes
  Migratory,         ///< read-modify-write ownership passing node to node
  ProducerConsumer,  ///< disjoint writer and reader sets
  WidelyShared,      ///< many readers per write interval
  FalseShared,       ///< word-disjoint accessors forced into one block
  Mixed,             ///< none of the above
};
inline constexpr std::size_t kSharingPatterns = 8;

[[nodiscard]] std::string_view to_string(SharingPattern p) noexcept;

/// Cost-model parameters: approximate cycles per replayed event, derived
/// from the machine's MemTimings/network constants and calibrated against
/// measured sweeps at the default machine size (tools/ccadvise validates
/// the calibration; DESIGN.md section 14 derives each one). All doubles
/// so sweeps can recalibrate them.
struct SharingCostParams {
  /// WI: acquire exclusive ownership (2-3 hops, invalidation fan-out and
  /// acks included -- they overlap the acquisition round trip).
  double write_acq = 60.0;
  double read_miss = 55.0;     ///< WI: re-fetch an invalidated block
  double update = 14.0;        ///< PU: one update delivery + ack
  /// CU: one update delivery + ack + competitive-counter maintenance.
  /// Slightly above PU's `update`: where the replayed delivery sets are
  /// equal, plain update wins.
  double cu_update = 15.0;
  double write_through = 12.0; ///< PU/CU: word write-through to the home
  double local_write = 1.0;    ///< write hit in a writable copy
  /// CU: re-fetch after a competitive drop. Calibrated at twice a plain
  /// read miss: the drop self-invalidates a line its node was actively
  /// polling, so the miss serializes with the spin loop and the re-fetched
  /// line immediately re-attracts the update stream it just shed.
  double refetch = 110.0;
};

/// Classifier thresholds (see classify() for the decision order).
struct SharingConfig {
  /// Migratory: average readers per write interval must not exceed this.
  double migratory_readers_max = 2.0;
  /// Widely-shared: average readers per write interval at or above this.
  double widely_avg_readers = 3.0;
  /// Widely-shared (alternative trigger): some interval saw at least
  /// max(this, nprocs/2) distinct readers.
  unsigned widely_min_readers = 4;
  /// Read-mostly: completed reads at least this multiple of writes.
  double read_mostly_ratio = 16.0;
  SharingCostParams cost{};
};

/// The classifier's output for one run. Opt-in: enabled() mirrors
/// ObsConfig::sharing, and the "sharing" JSON section appears only when on
/// (byte-identity everywhere else, like the host report).
struct SharingReport {
  static constexpr std::uint64_t kSchema = 1;

  struct Row {
    mem::BlockAddr block = 0;
    Addr base = 0;
    std::string name;  ///< SharedAllocator symbolic name ("" = unnamed)
    SharingPattern pattern = SharingPattern::Private;
    unsigned accessors = 0;     ///< distinct nodes that read or wrote
    unsigned reader_count = 0;  ///< distinct nodes that read
    unsigned writer_count = 0;  ///< distinct nodes that wrote
    std::uint64_t reads = 0;    ///< completed reads (spins included)
    std::uint64_t writes = 0;   ///< globally-ordered writes
    std::uint64_t intervals = 0;            ///< closed write intervals
    std::uint64_t reader_episodes = 0;      ///< sum over intervals of |readers|
    std::uint64_t max_interval_readers = 0;
    std::uint64_t runs = 0;      ///< write runs (same writer, no handoff)
    std::uint64_t max_run = 0;   ///< longest run
    std::uint64_t handoffs = 0;  ///< writer changes
    std::uint64_t migratory_handoffs = 0;  ///< new writer read it just before
    std::uint64_t invals_sent = 0;         ///< WI home invalidations
    std::uint64_t writable_grants = 0;     ///< exclusive/private grants
    std::uint64_t updates_delivered = 0;   ///< PU/CU update deliveries
    std::uint64_t updates_wasted = 0;      ///< delivered but never read
    std::uint64_t updates_dropped = 0;     ///< CU competitive self-invals
    std::uint64_t pu_updates = 0;    ///< replay: updates a PU run multicasts
    std::uint64_t cu_updates = 0;    ///< replay: updates a CU run delivers
    std::uint64_t cu_refetches = 0;  ///< replay: re-reads after a CU drop
    bool word_disjoint = false;  ///< no word has two accessors
    double cost_wi = 0, cost_pu = 0, cost_cu = 0;  ///< projected cycles
    proto::Protocol best = proto::Protocol::WI;
    [[nodiscard]] std::uint64_t activity() const noexcept {
      return reads + writes;
    }
    [[nodiscard]] double avg_interval_readers() const noexcept {
      return intervals ? static_cast<double>(reader_episodes) /
                             static_cast<double>(intervals)
                       : 0.0;
    }
  };

  /// Per symbolic allocation (HotBlockTable-style names, aggregated over
  /// the allocation's blocks; pattern = the pattern carrying the most
  /// read+write activity within the group).
  struct Alloc {
    std::string name;  ///< allocation name ("(unnamed)" when anonymous)
    std::size_t blocks = 0;
    SharingPattern pattern = SharingPattern::Private;
    std::uint64_t reads = 0, writes = 0;
    std::uint64_t invals_sent = 0, updates_wasted = 0;
    double cost_wi = 0, cost_pu = 0, cost_cu = 0;
    proto::Protocol best = proto::Protocol::WI;
  };

  bool on = false;
  unsigned nprocs = 0;
  unsigned cu_threshold = 4;
  std::vector<Row> blocks;   ///< activity-descending, then by address
  std::vector<Alloc> allocs; ///< activity-descending, then by name
  std::array<std::uint64_t, kSharingPatterns> pattern_blocks{};
  double total_wi = 0, total_pu = 0, total_cu = 0;
  proto::Protocol recommended = proto::Protocol::WI;

  [[nodiscard]] bool enabled() const noexcept { return on; }
  /// Projected cycles had the whole run used static protocol `p`.
  [[nodiscard]] double total_cost(proto::Protocol p) const noexcept;
};

/// Pick WI/PU/CU by minimum cost; ties resolve in WI, PU, CU order.
[[nodiscard]] proto::Protocol cheapest_protocol(double wi, double pu,
                                                double cu) noexcept;

class SharingTracker : public Observer {
public:
  /// Throws std::invalid_argument unless nprocs is in [1, mem::kMaxNodes]
  /// (accessor sets are 64-bit node bitmaps).
  explicit SharingTracker(unsigned nprocs, unsigned cu_threshold,
                          SharingConfig cfg = {});

  // Observer hooks. All are O(1) per call and allocate only on the first
  // touch of a block; none reads the `word` argument. on_poke stays a no-op:
  // pre-run initialization is not program sharing.

  /// A read of `a` completed at `reader` (cache hits included).
  void on_read(NodeId reader, Addr a, std::uint64_t word) override;
  /// A write to `a` by `writer` reached its global-order point.
  void on_global_write(NodeId writer, Addr a, std::uint64_t word) override;
  /// A locally-visible write not yet globally ordered (PU/CU write-through
  /// into the writer's own copy); the matching global order point fires
  /// on_global_write at the home. Marks accessor bitmaps only.
  void on_local_write(NodeId writer, Addr a, std::uint64_t word) override;
  /// `node` obtained a writable (WI Modified / PU PrivateDirty) copy of `b`.
  void on_writable(NodeId node, mem::BlockAddr b) override;
  /// The WI home sent an invalidation of `trigger`'s block to `dst` on
  /// behalf of `writer`.
  void on_inval_sent(NodeId dst, Addr trigger, NodeId writer) override;
  /// The PU/CU cache at `dst` received an update of `a` written by
  /// `writer`; `d` says whether it was applied, stale, or dropped.
  void on_update_delivered(NodeId dst, Addr a, NodeId writer, Delivery d,
                           std::uint64_t word) override;

  /// Close open write intervals and count still-unread deliveries as
  /// wasted. Machine::run calls this once at the end of the run.
  void finalize();

  /// Classify every touched block and project costs. `alloc` (may be null)
  /// resolves symbolic names for the per-allocation aggregation.
  [[nodiscard]] SharingReport report(const mem::SharedAllocator* alloc) const;

  [[nodiscard]] const SharingConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t touched_blocks() const noexcept {
    return blocks_.size();
  }

private:
  using NodeSet = std::uint64_t;  ///< bit n = node n

  struct BlockStats {
    NodeSet readers = 0, writers = 0;
    std::array<NodeSet, mem::kWordsPerBlock> word_readers{};
    std::array<NodeSet, mem::kWordsPerBlock> word_writers{};
    std::uint64_t reads = 0, writes = 0;
    // Current write interval / run state.
    NodeSet cur_readers = 0;   ///< readers since the last write
    NodeSet prev_readers = 0;  ///< readers of the interval before
    NodeId last_writer = kInvalidNode;
    std::uint64_t run_len = 0;
    // Closed aggregates.
    std::uint64_t runs = 0, max_run = 0;
    std::uint64_t intervals = 0, reader_episodes = 0;
    std::uint64_t max_interval_readers = 0, intervals_with_readers = 0;
    std::uint64_t handoffs = 0, migratory_handoffs = 0;
    std::uint64_t sharers_at_write = 0;  ///< sum of |other accessors| per write
    // Protocol replay for the cost model: a per-node simulation of the CU
    // competitive counter driven by the observed global write order and
    // read hooks. `copies` is the set of nodes that ever touched the block
    // (the PU multicast set); `cu_live` are the copies whose counter has
    // not tripped; `cu_streak[n]` counts consecutive updates node n
    // received without reading. Protocol-invariant by construction -- it
    // only consumes the global write order and per-node reads.
    NodeSet copies = 0, cu_live = 0;
    std::array<std::uint8_t, mem::kMaxNodes> cu_streak{};
    std::uint64_t pu_updates = 0, cu_updates = 0, cu_refetches = 0;
    std::uint64_t invals_sent = 0, writable_grants = 0;
    std::uint64_t updates_delivered = 0, updates_wasted = 0,
                  updates_dropped = 0;
    /// Per word: nodes holding a delivered-but-unread update.
    std::array<NodeSet, mem::kWordsPerBlock> pending_unread{};
  };

  [[nodiscard]] SharingPattern classify(const BlockStats& s) const;
  void project(const BlockStats& s, double& wi, double& pu, double& cu) const;
  void close_interval(BlockStats& s, NodeId next_writer);

  unsigned nprocs_;
  unsigned cu_threshold_;
  SharingConfig cfg_;
  /// Ordered map: deterministic iteration for byte-stable reports.
  std::map<mem::BlockAddr, BlockStats> blocks_;
  bool finalized_ = false;
};

} // namespace ccsim::obs
