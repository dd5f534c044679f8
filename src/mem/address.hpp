// Address arithmetic and machine-wide geometry constants.
//
// The simulated machine follows the paper's parameters: 64-byte cache
// blocks, and an 8-byte word as the unit of update propagation and of the
// miss/update classification algorithms (8 words per block). Words are
// 8 bytes so that flags, counters and MCS queue pointers each occupy
// exactly one classified word.
#pragma once

#include "sim/types.hpp"

#include <cassert>
#include <cstddef>

namespace ccsim::mem {

inline constexpr std::size_t kBlockSize = 64;  ///< bytes per cache block
inline constexpr std::size_t kWordSize = 8;    ///< bytes per classified word
inline constexpr std::size_t kWordsPerBlock = kBlockSize / kWordSize;

/// Block number of an address (addresses within one block share it).
using BlockAddr = Addr;

[[nodiscard]] constexpr BlockAddr block_of(Addr a) noexcept { return a / kBlockSize; }

/// First byte address of a block.
[[nodiscard]] constexpr Addr block_base(BlockAddr b) noexcept { return b * kBlockSize; }

/// Word index (0..7) of an address within its block.
[[nodiscard]] constexpr unsigned word_of(Addr a) noexcept {
  return static_cast<unsigned>((a / kWordSize) % kWordsPerBlock);
}

/// First byte address of the word containing an address.
[[nodiscard]] constexpr Addr word_base(Addr a) noexcept { return a - a % kWordSize; }

/// Byte offset of an address within its block.
[[nodiscard]] constexpr std::size_t offset_of(Addr a) noexcept {
  return static_cast<std::size_t>(a % kBlockSize);
}

/// True if [a, a+size) stays within one word. Every simulated access must
/// (the classification algorithms are word-granular).
[[nodiscard]] constexpr bool within_word(Addr a, std::size_t size) noexcept {
  return size <= kWordSize && (a % kWordSize) + size <= kWordSize;
}

/// Base of the simulated shared segment. Anything below is private memory
/// that the coherence machinery never sees.
inline constexpr Addr kSharedBase = 0x1000'0000;

[[nodiscard]] constexpr bool is_shared(Addr a) noexcept { return a >= kSharedBase; }

} // namespace ccsim::mem
