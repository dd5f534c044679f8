// Dense per-block records for the shared segment.
//
// Shared memory is bump-allocated upward from kSharedBase
// (mem/shared_alloc.hpp), so the blocks a run touches form one dense range
// starting at block_of(kSharedBase) and a block's slot is one subtraction.
// BlockTable<T> keeps one value-initialized T per slot in fixed chunks of
// kChunkBlocks records. Touching a block past the last chunk appends
// chunks up to it. Chunks never move (growth reallocates only the vector
// of chunk pointers), so a reference to a record stays valid while other
// blocks are touched. for_each walks the slots in block-address order, the
// order of an ordered map keyed by block.
#pragma once

#include "mem/address.hpp"
#include "sim/check.hpp"

#include <cstddef>
#include <memory>
#include <vector>

namespace ccsim::mem {

template <class T>
class BlockTable {
public:
  /// Records per chunk, the unit of growth.
  static constexpr std::size_t kChunkBlocks = 64;

  /// The record of shared block `b`, value-initialized on first touch.
  T& operator[](BlockAddr b) {
    const std::size_t i = slot(b);
    while (chunks_.size() <= i / kChunkBlocks)
      chunks_.push_back(std::make_unique<T[]>(kChunkBlocks));
    return chunks_[i / kChunkBlocks][i % kChunkBlocks];
  }

  /// The record of shared block `b`, or nullptr past the last chunk.
  [[nodiscard]] T* find(BlockAddr b) noexcept {
    const std::size_t i = slot(b);
    return i / kChunkBlocks < chunks_.size()
               ? &chunks_[i / kChunkBlocks][i % kChunkBlocks]
               : nullptr;
  }
  [[nodiscard]] const T* find(BlockAddr b) const noexcept {
    return const_cast<BlockTable*>(this)->find(b);
  }

  /// Calls f(block, record) for every slot of every chunk, in block-address
  /// order; slots no caller touched hold a value-initialized T.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t c = 0; c < chunks_.size(); ++c)
      for (std::size_t j = 0; j < kChunkBlocks; ++j)
        f(static_cast<BlockAddr>(kFirstBlock + c * kChunkBlocks + j), chunks_[c][j]);
  }
  template <class F>
  void for_each(F&& f) const {
    const_cast<BlockTable*>(this)->for_each(
        [&f](BlockAddr b, const T& rec) { f(b, rec); });
  }

private:
  static constexpr BlockAddr kFirstBlock = block_of(kSharedBase);

  static std::size_t slot(BlockAddr b) noexcept {
    CCSIM_CHECK(b >= kFirstBlock,
                "block %#llx lies below the shared segment (first block %#llx)",
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(kFirstBlock));
    return static_cast<std::size_t>(b - kFirstBlock);
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
};

} // namespace ccsim::mem
