// Hot-block attribution: which cache lines cause the traffic.
//
// The paper's counters say HOW MUCH false sharing or proliferation a run
// suffered; this table says WHERE. Every classified miss (by MissClass),
// classified update (by UpdateClass), invalidation, and home-directory
// transaction is attributed to its block address, and the top-K offenders
// are reported with symbolic names resolved through the shared allocator
// ("mcs.qnodes+0x10" instead of 0x10000040).
//
// The table is an obs::Observer fed by the classifier and home hooks, so
// attribution is exact by construction (same classification, same counts)
// and costs one hash-map update per classified event -- only when a table
// is attached.
#pragma once

#include "mem/address.hpp"
#include "obs/observer.hpp"
#include "sim/types.hpp"
#include "stats/counters.hpp"

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccsim::mem {
class SharedAllocator;
}

namespace ccsim::obs {

class HotBlockTable : public Observer {
public:
  /// Per-block traffic attribution.
  struct Cell {
    std::array<std::uint64_t, stats::kMissClasses> misses{};
    std::array<std::uint64_t, stats::kUpdateClasses> updates{};
    std::uint64_t invals = 0;
    std::uint64_t home_txns = 0;

    [[nodiscard]] std::uint64_t miss_total() const noexcept;
    [[nodiscard]] std::uint64_t update_total() const noexcept;
    /// Heat score ranking the report (classified events + coherence work;
    /// the components overlap -- a miss usually implies a home transaction
    /// -- so this is a ranking key, not a traffic volume).
    [[nodiscard]] std::uint64_t score() const noexcept;
  };

  struct Row {
    mem::BlockAddr block = 0;
    Addr base = 0;      ///< first byte address of the block
    std::string name;   ///< allocator-assigned name + offset ("" = unnamed)
    Cell cell;
  };

  void on_miss(NodeId, Addr a, stats::MissClass c) override {
    ++table_[mem::block_of(a)].misses[static_cast<std::size_t>(c)];
  }
  void on_update_classified(mem::BlockAddr b, stats::UpdateClass c) override {
    ++table_[b].updates[static_cast<std::size_t>(c)];
  }
  void on_invalidated(NodeId, mem::BlockAddr b, Addr) override {
    ++table_[b].invals;
  }
  void on_home_txn(mem::BlockAddr b) override { ++table_[b].home_txns; }

  [[nodiscard]] std::size_t distinct_blocks() const noexcept {
    return table_.size();
  }

  /// The k hottest blocks, score-descending (block address breaks ties, so
  /// the report is deterministic). Names resolve via `alloc` when given.
  [[nodiscard]] std::vector<Row> top(std::size_t k,
                                     const mem::SharedAllocator* alloc) const;

private:
  std::unordered_map<mem::BlockAddr, Cell> table_;
};

} // namespace ccsim::obs
