#include "mem/memory_module.hpp"

#include <algorithm>

namespace ccsim::mem {
namespace {

// Bank service times. Section 3.1 fixes the read side: a memory module
// provides the first word 20 cycles after a request and later words at one
// word per cycle. It gives no figures for buffered writes or directory-only
// work; those two are ccsim's choices.
/// A block fill: the 20-cycle first word plus 7 more words at 1 per cycle.
constexpr Cycle kBlockRead = 27;
/// An atomic's read-modify-write reads one word: the 20-cycle first word.
constexpr Cycle kWordRead = 20;
/// A writeback's 8 words absorbed at 1 word per cycle; the write is
/// buffered, so it pays no first-word access time.
constexpr Cycle kBlockWrite = 8;
/// A buffered word write (update write-through); no section 3.1 figure.
constexpr Cycle kWordWrite = 4;
/// Directory-only bookkeeping; no section 3.1 figure.
constexpr Cycle kDirOp = 2;

Cycle service_time(MemoryModule::AccessKind kind) noexcept {
  using AK = MemoryModule::AccessKind;
  switch (kind) {
    case AK::BlockRead: return kBlockRead;
    case AK::BlockWrite: return kBlockWrite;
    case AK::WordRead: return kWordRead;
    case AK::WordWrite: return kWordWrite;
    case AK::DirOnly: return kDirOp;
  }
  return 1;
}

} // namespace

Cycle MemoryModule::book(Cycle now, AccessKind kind) {
  const Cycle start = std::max(now, busy_until_);
  busy_until_ = start + service_time(kind);
  return busy_until_;
}

} // namespace ccsim::mem
