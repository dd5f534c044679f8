// Per-home memory bank timing.
//
// A memory module can provide the first word 20 cycles after a request and
// subsequent words at 1 word/cycle; memory contention is fully modeled
// (paper, section 3.1) as bank occupancy: each access books the bank from
// its start until its completion, and a request arriving while the bank is
// busy waits. The service time of each access kind is a constant in
// memory_module.cpp. The memory contents live with the directory entries,
// one record per block in the machine's mem::HomeTable (mem/directory.hpp).
#pragma once

#include "sim/types.hpp"

namespace ccsim::mem {

class MemoryModule {
public:
  enum class AccessKind { BlockRead, BlockWrite, WordRead, WordWrite, DirOnly };

  /// Book the bank for one access starting no earlier than `now`.
  /// Returns the completion time.
  Cycle book(Cycle now, AccessKind kind);

private:
  Cycle busy_until_ = 0;
};

} // namespace ccsim::mem
