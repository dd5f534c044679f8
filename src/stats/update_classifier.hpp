// Update-message categorization (paper section 3.2, after [2]).
//
// An update's lifetime ends when it is overwritten by another update to the
// same word, when the block is replaced, when the program ends, or (CU)
// when it triggers a drop. At that point it is classified:
//   - true sharing  (useful): the receiver referenced the updated word
//     during the lifetime (finalized eagerly at the reference);
//   - false sharing: never referenced the word, but the receiver touched
//     some other word of the block during the lifetime;
//   - proliferation: never referenced anything in the block;
//   - replacement:  block replaced while the update was still pending;
//   - termination:  still pending when the program ended and no false
//     sharing was active (the paper's "End" bar);
//   - drop:         the update whose arrival tripped the competitive
//     counter and invalidated the block.
//
// State is two bitmasks per (processor, block): which words hold a pending
// (not yet classified) update, and which of those saw the processor touch a
// *different* word of the block since the update arrived.
#pragma once

#include "mem/address.hpp"
#include "mem/block_table.hpp"
#include "obs/observer.hpp"
#include "sim/types.hpp"
#include "stats/counters.hpp"

#include <cstdint>
#include <vector>

namespace ccsim::stats {

class UpdateClassifier {
public:
  /// Every classified update lifetime is also reported to `observers`
  /// (on_update_classified).
  UpdateClassifier(unsigned nprocs, Counters& counters, obs::Observers observers = {})
      : nprocs_(nprocs), counters_(counters), observers_(observers) {}

  /// An update to `addr` was applied to `proc`'s cached copy.
  void on_update_applied(NodeId proc, Addr addr);

  /// The update to `addr` arriving at `proc` tripped the CU counter: the
  /// block is being invalidated. Counts one Drop and ends the lifetimes of
  /// the block's other pending updates (as proliferation/false sharing --
  /// the receiver will reload the block, so they were never consumed).
  void on_drop_update(NodeId proc, Addr addr);

  /// `proc` referenced (load or store) `addr` in its cache.
  void on_reference(NodeId proc, Addr addr);

  /// `proc` replaced / flushed its copy of block `b`.
  void on_block_replaced(NodeId proc, mem::BlockAddr b);

  /// Program end: classify every still-pending update.
  void finalize(Cycle /*now*/ = 0);

private:
  struct PerProc {
    std::uint8_t pending = 0;   ///< words with an unclassified update
    std::uint8_t refother = 0;  ///< pending words with other-word activity
  };
  struct BlockInfo {
    std::vector<PerProc> procs;
  };

  PerProc& state(NodeId proc, mem::BlockAddr b);
  void finalize_word(PerProc& pp, mem::BlockAddr b, unsigned w,
                     UpdateClass overwrite_class);
  void count(mem::BlockAddr b, UpdateClass cls);

  unsigned nprocs_;
  Counters& counters_;
  obs::Observers observers_;
  mem::BlockTable<BlockInfo> blocks_;
};

} // namespace ccsim::stats
