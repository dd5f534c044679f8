// Discrete-event simulation kernel.
//
// A single global event queue drives the whole machine: cache controllers,
// directories, memory banks and network interfaces all schedule closures.
// Events at equal timestamps execute in scheduling order, which makes every
// simulation run bit-for-bit deterministic -- an invariant the test suite
// checks.
//
// The queue allocates nothing per event once warm. Each closure is built in
// place in a fixed-size slot taken from an arena the queue owns; a closure
// larger than kSlotBytes does not compile. An event fewer than kRingCycles
// ahead of the clock waits in a calendar ring of FIFO buckets, one per
// cycle; a later one waits in a binary heap of (time, sequence) keys and
// moves to its bucket once the clock comes within kRingCycles of it. Heap
// events reach their bucket before any event scheduled straight into it,
// which keeps (time, sequence) order (DESIGN.md §6).
#pragma once

#include "sim/check.hpp"
#include "sim/poison.hpp"
#include "sim/types.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccsim::sim {

/// Calendar queue of timed events plus the simulation clock.
class EventQueue {
public:
  /// Inline closure storage per event. Every closure the simulator
  /// schedules fits: a message waits in a net::MessageSlab and its closure
  /// carries the index.
  static constexpr std::size_t kSlotBytes = 56;
  /// Span of the calendar ring in cycles, one bucket per cycle.
  static constexpr Cycle kRingCycles = 1024;

  EventQueue() = default;
  /// Destroys the closures of events still pending without running them.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulation time. Only advances inside run()/step().
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now()).
  template <class F>
  void schedule_at(Cycle t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kSlotBytes,
                  "closure exceeds EventQueue::kSlotBytes (56 bytes) of inline "
                  "slot storage: park large captures and capture an index");
    static_assert(alignof(Fn) <= alignof(Slot), "closure over-aligned for a slot");
    CCSIM_CHECK(t >= now_, "cycle=%llu: event scheduled in the past, at cycle %llu",
                static_cast<unsigned long long>(now_), static_cast<unsigned long long>(t));
    Slot* s = take_slot();
    if constexpr (std::is_nothrow_constructible_v<Fn, F&&>) {
      ::new (static_cast<void*>(s->storage)) Fn(std::forward<F>(fn));
    } else {
      try {
        ::new (static_cast<void*>(s->storage)) Fn(std::forward<F>(fn));
      } catch (...) {
        give_back(s);
        throw;
      }
    }
    s->op = &run_or_destroy<Fn>;
    file(t, s);
  }

  /// Schedule `fn` to run `delay` cycles from now.
  template <class F>
  void schedule(Cycle delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Execute the earliest pending event. Returns false if the queue is
  /// empty. The event's closure is destroyed and its slot freed even if it
  /// throws.
  bool step();

  /// Run until no events remain.
  void run();

  /// Run until the clock would pass `limit` or no events remain.
  /// Returns true if the queue drained, false if the limit stopped us.
  bool run_until(Cycle limit);

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  /// Cached, so a next_time() before step() finds the bucket once.
  [[nodiscard]] Cycle next_time() const noexcept {
    if (!next_known_) {
      next_ = find_next();
      next_known_ = true;
    }
    return next_;
  }

  /// Total number of events executed so far (for kernel micro-benchmarks).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Total number of events ever scheduled (the host-telemetry layer
  /// reports it as an allocation stream; slots are recycled, so it counts
  /// closures constructed, not heap allocations).
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

private:
  struct Slot {
    alignas(8) std::byte storage[kSlotBytes];
    void (*op)(void* storage, bool run);  ///< run if asked, then destroy
    Slot* next;                            ///< bucket or free-list link
  };
  struct Bucket {
    Slot* head = nullptr;
    Slot* tail = nullptr;
  };
  struct Far {
    Cycle t;
    std::uint64_t seq;
    Slot* slot;
  };
  struct Later {
    bool operator()(const Far& a, const Far& b) const noexcept {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  static constexpr std::size_t kChunkSlots = 256;
  static constexpr std::size_t kWords = kRingCycles / 64;
  static_assert(kRingCycles % 64 == 0 && (kRingCycles & (kRingCycles - 1)) == 0);

  template <class Fn>
  static void run_or_destroy(void* storage, bool run) {
    Fn* fn = std::launder(static_cast<Fn*>(storage));
    struct Destroy {
      Fn* fn;
      ~Destroy() { fn->~Fn(); }
    } destroy{fn};
    if (run) (*fn)();
  }

  Slot* take_slot() {
    if (!free_) grow();
    Slot* s = free_;
    CCSIM_UNPOISON(s, sizeof(Slot));
    free_ = s->next;
    return s;
  }
  void give_back(Slot* s) noexcept {
    s->next = free_;
    free_ = s;
    CCSIM_POISON(s, sizeof(Slot));
  }
  void grow();

  void file(Cycle t, Slot* s) {
    const std::uint64_t seq = next_seq_++;
    if (pending_++ == 0) {
      next_ = t;
      next_known_ = true;
    } else if (next_known_ && t < next_) {
      next_ = t;
    }
    if (t - now_ < kRingCycles)
      append(t, s);
    else
      push_far(Far{t, seq, s});
  }
  void append(Cycle t, Slot* s) noexcept {
    const std::size_t i = static_cast<std::size_t>(t) & (kRingCycles - 1);
    Bucket& b = ring_[i];
    s->next = nullptr;
    if (b.tail)
      b.tail->next = s;
    else
      b.head = s;
    b.tail = s;
    occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void push_far(const Far& f);
  void advance(Cycle t);
  [[nodiscard]] Cycle find_next() const noexcept;

  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  mutable Cycle next_ = 0;           ///< earliest pending time, if known
  mutable bool next_known_ = false;
  std::array<Bucket, kRingCycles> ring_{};  ///< events in [now, now + kRingCycles)
  std::array<std::uint64_t, kWords> occupied_{};  ///< non-empty buckets
  std::vector<Far> far_;             ///< min-heap of later events
  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< the slot arena; never moves
  Slot* free_ = nullptr;             ///< LIFO free list through Slot::next
};

} // namespace ccsim::sim
