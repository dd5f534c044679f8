// task.hpp is mostly header-only; this translation unit holds the
// thread-local frame-allocation counter the host-telemetry layer reads and
// the thread-local coroutine-frame pool.
#include "sim/task.hpp"

#include "sim/poison.hpp"

#include <array>
#include <new>

namespace ccsim::sim::detail {

thread_local std::uint64_t t_frames_allocated = 0;

namespace {

constexpr std::size_t kFrameClassBytes = 64;
constexpr std::size_t kFramePoolMaxBytes = 1024;
constexpr std::size_t kFrameClasses = kFramePoolMaxBytes / kFrameClassBytes;

/// A free block; the link lives in the block itself.
struct FreeFrame {
  FreeFrame* next;
};

/// Set once this thread's pool is gone; later frames bypass it.
thread_local bool t_pool_closed = false;

/// This thread's free frames, one LIFO list per size class. Free blocks
/// are poisoned under ASan; a link is read only after unpoisoning.
struct FramePool {
  std::array<FreeFrame*, kFrameClasses> free{};

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    t_pool_closed = true;
    for (std::size_t c = 0; c < kFrameClasses; ++c) {
      while (FreeFrame* f = free[c]) {
        CCSIM_UNPOISON(f, (c + 1) * kFrameClassBytes);
        free[c] = f->next;
        ::operator delete(f);
      }
    }
  }
};

thread_local FramePool t_pool;

} // namespace

void* frame_alloc(std::size_t n) {
  if (n > kFramePoolMaxBytes || t_pool_closed) return ::operator new(n);
  const std::size_t c = (n - 1) / kFrameClassBytes;
  if (FreeFrame* f = t_pool.free[c]) {
    CCSIM_UNPOISON(f, (c + 1) * kFrameClassBytes);
    t_pool.free[c] = f->next;
    return f;
  }
  return ::operator new((c + 1) * kFrameClassBytes);
}

void frame_free(void* p, std::size_t n) noexcept {
  if (n > kFramePoolMaxBytes || t_pool_closed) {
    ::operator delete(p);
    return;
  }
  const std::size_t c = (n - 1) / kFrameClassBytes;
  auto* f = static_cast<FreeFrame*>(p);
  f->next = t_pool.free[c];
  t_pool.free[c] = f;
  CCSIM_POISON(f, (c + 1) * kFrameClassBytes);
}

} // namespace ccsim::sim::detail
