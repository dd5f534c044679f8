// Per-node memory module: backing store plus bank timing.
//
// A memory module can provide the first word 20 cycles after a request and
// subsequent words at 1 word/cycle; memory contention is fully modeled
// (paper, section 3.1) as bank occupancy: each access books the bank from
// its start until its completion, and a request arriving while the bank is
// busy waits. The service time of each access kind is a constant in
// memory_module.cpp.
#pragma once

#include "mem/address.hpp"
#include "sim/types.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace ccsim::mem {

class MemoryModule {
public:
  enum class AccessKind { BlockRead, BlockWrite, WordRead, WordWrite, DirOnly };

  /// Book the bank for one access starting no earlier than `now`.
  /// Returns the completion time.
  Cycle book(Cycle now, AccessKind kind);

  // --- backing store (blocks are lazily zero-initialized) -------------

  [[nodiscard]] std::uint64_t read_word(Addr addr, std::size_t size) const;
  void write_word(Addr addr, std::size_t size, std::uint64_t value);

  [[nodiscard]] const std::array<std::byte, kBlockSize>& read_block(BlockAddr b);
  void write_block(BlockAddr b, const std::array<std::byte, kBlockSize>& data);

private:
  Cycle busy_until_ = 0;
  mutable std::unordered_map<BlockAddr, std::array<std::byte, kBlockSize>> store_;
};

} // namespace ccsim::mem
