// Full-map directory and home memory: one record per shared block.
//
// Under the full-map directory (paper, section 3.1) every shared block has
// exactly one home, which keeps its directory entry and its memory copy.
// The home is fixed before the run (SharedAllocator::home_of, and on a
// Hybrid node the engine its domain selects), so exactly one (node,
// engine) ever touches a block's record and one machine-wide HomeTable
// holds every home's state: each home controller reads and writes its
// slice of it. The memory bank's timing stays with each home
// (mem/memory_module.hpp).
#pragma once

#include "mem/address.hpp"
#include "mem/block_table.hpp"
#include "sim/types.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

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

/// Everything a block's home keeps about it.
struct HomeBlock {
  DirEntry entry;
  bool has_entry = false;  ///< a home transaction touched the block
  std::array<std::byte, kBlockSize> data{};  ///< memory copy, zero until written
};

/// One HomeBlock per shared block, machine-wide (see the header comment).
class HomeTable {
public:
  /// Directory entry for block `b`, creating an Unowned one on first touch.
  [[nodiscard]] DirEntry& entry(BlockAddr b) {
    HomeBlock& h = blocks_[b];
    h.has_entry = true;
    return h.entry;
  }

  /// The entry of `b`, or nullptr if no home transaction touched it.
  [[nodiscard]] const DirEntry* find(BlockAddr b) const noexcept {
    const HomeBlock* h = blocks_.find(b);
    return h && h->has_entry ? &h->entry : nullptr;
  }

  /// Calls f(block, entry) for every block with an entry, in block order.
  template <class F>
  void for_each_entry(F&& f) const {
    blocks_.for_each([&f](BlockAddr b, const HomeBlock& h) {
      if (h.has_entry) f(b, h.entry);
    });
  }

  // --- memory contents; writing memory creates no directory entry ------

  [[nodiscard]] std::uint64_t read_word(Addr addr, std::size_t size) const;
  void write_word(Addr addr, std::size_t size, std::uint64_t value);

  [[nodiscard]] const std::array<std::byte, kBlockSize>& read_block(BlockAddr b) {
    return blocks_[b].data;
  }
  void write_block(BlockAddr b, const std::array<std::byte, kBlockSize>& data) {
    blocks_[b].data = data;
  }

private:
  BlockTable<HomeBlock> blocks_;
};

} // namespace ccsim::mem
