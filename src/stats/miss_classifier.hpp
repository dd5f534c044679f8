// Cache-miss categorization (paper section 3.2).
//
// Implements the algorithm of Dubois et al. [5] as extended by Bianchini &
// Kontothanassis [2]: misses are cold start, true sharing, false sharing,
// eviction, or drop; exclusive-request (upgrade) transactions are counted
// alongside because they generate traffic without being misses.
//
// Mechanism: every globally-performed store bumps a per-word version
// counter. When a processor loses its copy the classifier records the
// reason and snapshots the block's word versions (plus the word whose write
// triggered an invalidation). At the next miss by that processor:
//   - never cached the block            -> cold start
//   - lost to conflict replacement      -> eviction
//   - lost to a competitive-update drop -> drop
//   - lost to an invalidation           -> true sharing if the accessed
//     word was written by another processor since the loss (version moved
//     or it was the triggering word), else false sharing.
#pragma once

#include "mem/address.hpp"
#include "mem/block_table.hpp"
#include "obs/observer.hpp"
#include "sim/types.hpp"
#include "stats/counters.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace ccsim::stats {

class MissClassifier {
public:
  /// Every classified miss and every invalidation is also reported to
  /// `observers` (on_miss, on_invalidated).
  MissClassifier(unsigned nprocs, Counters& counters, obs::Observers observers = {})
      : nprocs_(nprocs), counters_(counters), observers_(observers) {}

  /// A store to `addr` became globally visible, performed by `proc`.
  /// (WI: at the writer's cache once exclusive; PU/CU: at the home.)
  void on_store(NodeId proc, Addr addr);

  /// `proc`'s copy of block `b` was invalidated by a write to `trigger`
  /// (word address) issued by another processor.
  void on_invalidated(NodeId proc, mem::BlockAddr b, Addr trigger);

  /// `proc` lost its copy of `b` to a conflict replacement (or user flush).
  void on_evicted(NodeId proc, mem::BlockAddr b);

  /// `proc` self-invalidated `b` under the competitive-update policy.
  void on_dropped(NodeId proc, mem::BlockAddr b);

  /// `proc` filled block `b` into its cache.
  void on_fill(NodeId proc, mem::BlockAddr b);

  /// Classify and count the miss `proc` takes at `addr`. Returns the class.
  MissClass classify_miss(NodeId proc, Addr addr);

  /// Count an upgrade (write hit on a read-shared copy under WI).
  void on_exclusive_request(NodeId proc);

private:
  enum class Loss : std::uint8_t { None, Inval, Evict, Drop };

  struct PerProc {
    bool ever_cached = false;
    Loss loss = Loss::None;
    std::uint8_t trigger_mask = 0;  ///< words whose writes caused the loss
    std::array<std::uint32_t, mem::kWordsPerBlock> snapshot{};
  };
  struct BlockInfo {
    std::array<std::uint32_t, mem::kWordsPerBlock> version{};
    std::vector<PerProc> procs;  ///< size nprocs
  };

  BlockInfo& info(mem::BlockAddr b);

  unsigned nprocs_;
  Counters& counters_;
  obs::Observers observers_;
  mem::BlockTable<BlockInfo> blocks_;
};

} // namespace ccsim::stats
