// Direct-mapped data cache holding real data.
//
// Caches (like memories) store actual bytes and messages carry values, so
// algorithm correctness -- MCS queue pointers, ticket values, reduction
// results -- exercises protocol correctness: a mis-ordered update or a lost
// invalidation corrupts program results and fails the test suite.
//
// 64 KB direct-mapped with 64-byte blocks (paper, section 3.1) by default.
#pragma once

#include "mem/address.hpp"
#include "sim/types.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ccsim::mem {

/// Per-line coherence state. WI uses Invalid/Shared/Modified; the update
/// protocols use Invalid/ValidU/PrivateDirty (PrivateDirty only under PU's
/// private-block optimization).
enum class LineState : std::uint8_t {
  Invalid,
  Shared,       ///< WI: clean, possibly replicated
  Modified,     ///< WI: exclusive dirty
  ValidU,       ///< update protocols: valid, kept fresh by updates
  PrivateDirty, ///< PU: home granted private mode; writes stay local
};

struct CacheLine {
  BlockAddr block = 0;
  LineState state = LineState::Invalid;
  std::uint8_t cu_counter = 0;  ///< competitive-update counter (CU only)
  std::array<std::byte, kBlockSize> data{};

  [[nodiscard]] bool valid() const noexcept { return state != LineState::Invalid; }
};

class DataCache {
public:
  explicit DataCache(std::size_t size_bytes = 64 * 1024);

  [[nodiscard]] std::size_t num_sets() const noexcept { return lines_.size(); }

  /// The (single) line that block `b` maps to, whatever it currently holds.
  [[nodiscard]] CacheLine& set_for(BlockAddr b) noexcept {
    return lines_[static_cast<std::size_t>(b) & (lines_.size() - 1)];
  }
  [[nodiscard]] const CacheLine& set_for(BlockAddr b) const noexcept {
    return lines_[static_cast<std::size_t>(b) & (lines_.size() - 1)];
  }

  /// The line holding block `b`, or nullptr if absent/invalid.
  [[nodiscard]] CacheLine* find(BlockAddr b) noexcept {
    CacheLine& l = set_for(b);
    return (l.valid() && l.block == b) ? &l : nullptr;
  }
  [[nodiscard]] const CacheLine* find(BlockAddr b) const noexcept {
    const CacheLine& l = set_for(b);
    return (l.valid() && l.block == b) ? &l : nullptr;
  }

  /// Direct set access for auditors (i < num_sets()).
  [[nodiscard]] const CacheLine& line_at(std::size_t i) const noexcept {
    return lines_[i];
  }

  /// Read up to 8 bytes from a resident line. The caller must know the line
  /// is present (checked in debug builds).
  [[nodiscard]] std::uint64_t read(Addr addr, std::size_t size) const;

  /// Write up to 8 bytes into a resident line.
  void write(Addr addr, std::size_t size, std::uint64_t value);

  // --- line-change notification (spin-wait support) -------------------
  //
  // Cpu::spin_until subscribes to a block; protocol code calls notify()
  // after any state or data mutation (fill, update, invalidation, drop,
  // eviction). Watchers are one-shot: notify(b) fires b's watchers in
  // registration order and drops them.

  void watch(BlockAddr b, std::function<void()> fn) {
    watchers_.push_back({b, std::move(fn)});
  }
  void notify(BlockAddr b);

private:
  struct Watcher {
    BlockAddr block;
    std::function<void()> fn;
  };

  std::vector<CacheLine> lines_;
  /// A node has one processor, so a cache has at most a few watchers: a
  /// flat list beats any keyed table.
  std::vector<Watcher> watchers_;
  std::vector<std::function<void()>> firing_;  ///< notify()'s reused buffer
};

} // namespace ccsim::mem
