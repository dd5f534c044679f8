// 4-entry write buffer (paper, section 3.1).
//
// Stores enter the buffer in 1 cycle; the processor stalls only when the
// buffer is full. Reads bypass queued writes, with store-to-load forwarding
// when a queued entry covers the loaded bytes. Drain policy (when an entry
// may retire) is protocol-specific and lives in the cache controllers.
#pragma once

#include "mem/address.hpp"
#include "sim/types.hpp"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

namespace ccsim::mem {

/// Write-buffer depth: 4 entries per processor (section 3.1).
inline constexpr std::size_t kWriteBufferEntries = 4;

struct WriteBufferEntry {
  Addr addr = 0;
  std::size_t size = 0;
  std::uint64_t value = 0;
};

class WriteBuffer {
public:
  [[nodiscard]] bool full() const noexcept { return entries_.size() >= kWriteBufferEntries; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  void push(WriteBufferEntry e) {
    entries_.push_back(e);
    ++pushes_;
    if (entries_.size() > peak_) peak_ = entries_.size();
  }

  /// Lifetime stats (never reset): stores accepted, deepest occupancy.
  [[nodiscard]] std::uint64_t pushes() const noexcept { return pushes_; }
  [[nodiscard]] std::size_t peak() const noexcept { return peak_; }

  [[nodiscard]] const WriteBufferEntry& front() const { return entries_.front(); }
  void pop() { entries_.pop_front(); }

  /// Newest queued value covering exactly the loaded bytes, if any.
  [[nodiscard]] std::optional<std::uint64_t> forward(Addr addr, std::size_t size) const;

  /// True if any queued entry touches the same word as [addr, addr+size)
  /// without being an exact match -- the load must then wait for the drain.
  [[nodiscard]] bool partially_overlaps(Addr addr, std::size_t size) const;

  /// True if any queued entry writes into block `b` (flush instructions
  /// must wait for such stores to drain before dropping the block).
  [[nodiscard]] bool contains_block(BlockAddr b) const;

private:
  std::deque<WriteBufferEntry> entries_;
  std::uint64_t pushes_ = 0;
  std::size_t peak_ = 0;
};

} // namespace ccsim::mem
