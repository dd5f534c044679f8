// Full-map directory (one entry per shared block, lazily created).
#pragma once

#include "mem/address.hpp"
#include "sim/types.hpp"

#include <bit>
#include <cstdint>
#include <unordered_map>

namespace ccsim::mem {

/// Home-side view of a block.
enum class DirState : std::uint8_t {
  Unowned,   ///< no cached copies
  Shared,    ///< WI: one or more clean copies
  Exclusive, ///< WI: one dirty copy at `owner`
  Update,    ///< PU/CU: copies at `sharers`, memory up to date
  Private,   ///< PU: one retained-update copy at `owner` (may be dirty)
};

/// Largest machine the full-map sharer set (one bit per node) describes.
inline constexpr unsigned kMaxNodes = 64;

struct DirEntry {
  DirState state = DirState::Unowned;
  std::uint64_t sharers = 0;  ///< full-map bit vector, kMaxNodes bits
  NodeId owner = kInvalidNode;

  [[nodiscard]] bool has_sharer(NodeId n) const noexcept {
    return (sharers >> n) & 1u;
  }
  void add_sharer(NodeId n) noexcept { sharers |= std::uint64_t{1} << n; }
  void remove_sharer(NodeId n) noexcept { sharers &= ~(std::uint64_t{1} << n); }
  [[nodiscard]] unsigned sharer_count() const noexcept {
    return static_cast<unsigned>(std::popcount(sharers));
  }
  [[nodiscard]] bool only_sharer_is(NodeId n) const noexcept {
    return sharers == (std::uint64_t{1} << n);
  }
};

class Directory {
public:
  /// Entry for block `b`, creating an Unowned one on first touch.
  [[nodiscard]] DirEntry& entry(BlockAddr b) { return map_[b]; }

  [[nodiscard]] const DirEntry* find(BlockAddr b) const {
    auto it = map_.find(b);
    return it == map_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::unordered_map<BlockAddr, DirEntry>& entries() const {
    return map_;
  }

private:
  std::unordered_map<BlockAddr, DirEntry> map_;
};

} // namespace ccsim::mem
