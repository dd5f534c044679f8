// Unit tests for the discrete-event kernel.
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace {

using ccsim::Cycle;
using ccsim::sim::EventQueue;

TEST(EventQueue, StartsAtZeroAndEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) q.schedule_at(5, [&, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RelativeSchedulingUsesNow) {
  EventQueue q;
  Cycle seen = 0;
  q.schedule_at(100, [&] { q.schedule(5, [&] { seen = q.now(); }); });
  q.run();
  EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) q.schedule(1, chain);
  };
  q.schedule(1, chain);
  q.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  int ran = 0;
  q.schedule_at(10, [&] { ++ran; });
  q.schedule_at(20, [&] { ++ran; });
  EXPECT_FALSE(q.run_until(15));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.run_until(100));
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, ExecutedCounts) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, ZeroDelayRunsSameCycleAfterCurrent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] {
    order.push_back(1);
    q.schedule(0, [&] { order.push_back(2); });
  });
  q.schedule_at(5, [&] { order.push_back(3); });
  q.run();
  // The zero-delay event lands at t=5 but behind the already-queued one.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// --- (t, seq) order against a reference model -------------------------
//
// The queue files near events in calendar buckets and far ones in a heap
// that drains into the buckets as the clock advances. A plain priority
// queue ordered by (t, seq) is the reference: after every step() or
// run_until(), the clock, the next event time, the pending count and the
// execution order must match it.

class OrderModel {
public:
  explicit OrderModel(std::uint64_t seed) : rng_(seed) {}

  /// Schedule event `delay` cycles ahead on both the queue and the model.
  void add(Cycle delay) {
    const int id = next_id_++;
    const Cycle t = q_.now() + delay;
    ref_.push(Ref{t, seq_++, id});
    q_.schedule_at(t, [this, id] { fire(id); });
  }

  /// A delay from the ring/heap boundary cases or uniform up to 5000.
  Cycle draw_delay() {
    constexpr Cycle R = EventQueue::kRingCycles;
    static constexpr std::array<Cycle, 10> kEdges = {
        0, 1, 2, R - 1, R, R + 1, 2 * R, 3 * R, 4 * R, 2 * R + 1};
    if (rng_.below(2) == 0) return kEdges[rng_.below(kEdges.size())];
    return rng_.below(5000);
  }

  /// Drive the queue to empty with a seeded mix of step() and
  /// run_until(), checking it against the model after every call.
  void drive() {
    while (!q_.empty()) {
      const std::uint64_t op = rng_.below(10);
      if (op < 7) {
        EXPECT_TRUE(q_.step());
      } else {
        // Limits at now() stop part-way through the current cycle's
        // bucket once step() has taken some of it.
        const Cycle limit = q_.now() + (op == 7 ? 0 : rng_.below(3000));
        bool drained = q_.run_until(limit);
        EXPECT_EQ(drained, ref_.empty());
        if (!ref_.empty()) {
          EXPECT_GT(ref_.top().t, limit);
        }
      }
      check();
      if (::testing::Test::HasFailure()) return;
    }
  }

  void check() {
    EXPECT_EQ(q_.now(), now_);
    EXPECT_EQ(q_.pending(), ref_.size());
    EXPECT_EQ(q_.empty(), ref_.empty());
    if (!ref_.empty()) {
      EXPECT_EQ(q_.next_time(), ref_.top().t);
    }
  }

  int budget = 0;  ///< events still allowed to spawn children
  [[nodiscard]] int fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t far_events() const noexcept { return far_; }

private:
  struct Ref {
    Cycle t;
    std::uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const noexcept {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  void fire(int id) {
    ASSERT_FALSE(ref_.empty());
    const Ref r = ref_.top();
    ref_.pop();
    EXPECT_EQ(r.id, id) << "execution order differs from (t, seq) order";
    EXPECT_EQ(r.t, q_.now());
    now_ = r.t;
    ++fired_;
    // Spawn 0-3 children, zero-delay ones included, while the bucket of
    // this cycle is still draining.
    const int kids = static_cast<int>(rng_.below(4));
    for (int k = 0; k < kids && budget > 0; ++k, --budget) {
      const Cycle d = draw_delay();
      if (d >= EventQueue::kRingCycles) ++far_;
      add(d);
    }
  }

  EventQueue q_;
  std::priority_queue<Ref, std::vector<Ref>, Later> ref_;
  ccsim::sim::Rng rng_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  int fired_ = 0;
  std::uint64_t far_ = 0;
  Cycle now_ = 0;
};

TEST(EventQueueOrder, MatchesReferenceModelOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    OrderModel m(seed);
    m.budget = 20000;
    for (int i = 0; i < 300; ++i) m.add(m.draw_delay());
    m.check();
    m.drive();
    if (HasFailure()) return;
    EXPECT_GT(m.fired(), 10000);
    EXPECT_GT(m.far_events(), 1000u);  // the heap path was exercised
  }
}

TEST(EventQueueOrder, HeapEventPrecedesRingEventsAtItsTime) {
  // An event filed in the heap at t=0 for 2000 must run before events the
  // clock later files straight into the same bucket, and they in turn in
  // scheduling order.
  EventQueue q;
  std::vector<char> order;
  q.schedule_at(2000, [&] { order.push_back('A'); });
  q.schedule_at(1000, [&] {
    q.schedule_at(2000, [&] { order.push_back('B'); });
  });
  q.schedule_at(1500, [&] {
    q.schedule_at(2000, [&] { order.push_back('C'); });
    q.schedule_at(2000 + EventQueue::kRingCycles, [&] { order.push_back('E'); });
  });
  q.schedule_at(2000, [&] { order.push_back('D'); });
  q.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'D', 'B', 'C', 'E'}));
  EXPECT_EQ(q.now(), 2000 + EventQueue::kRingCycles);
}

TEST(EventQueueOrder, ClockJumpsAcrossEmptyRingToHeapEvents) {
  EventQueue q;
  std::vector<Cycle> seen;
  for (Cycle t : {Cycle{1} << 40, Cycle{5000}, Cycle{5000}, Cycle{70000}})
    q.schedule_at(t, [&] { seen.push_back(q.now()); });
  EXPECT_EQ(q.next_time(), 5000u);
  q.run();
  EXPECT_EQ(seen, (std::vector<Cycle>{5000, 5000, 70000, Cycle{1} << 40}));
}

// --- closure lifetimes -------------------------------------------------

/// Counts destructions of the one live (not moved-from) instance.
struct Tracker {
  int* dtors;
  bool owner = true;
  explicit Tracker(int* d) : dtors(d) {}
  Tracker(Tracker&& o) noexcept : dtors(o.dtors) { o.owner = false; }
  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;
  Tracker& operator=(Tracker&&) = delete;
  ~Tracker() {
    if (owner) ++*dtors;
  }
};

TEST(EventQueueLifetime, PendingClosuresDestroyedOnceWithTheQueue) {
  int dtors = 0;
  int ran = 0;
  {
    EventQueue q;
    for (Cycle d : {Cycle{1}, Cycle{3}, Cycle{3}, EventQueue::kRingCycles,
                    Cycle{5000}, Cycle{5000}})
      q.schedule(d, [t = Tracker(&dtors), &ran] { ++ran; });
    q.step();  // one runs and is destroyed now
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(dtors, 1);
  }
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(dtors, 6);
}

/// Records the address its slot gave it, optionally throwing.
struct Where {
  const void** at;
  bool boom = false;
  void operator()() const {
    *at = this;
    if (boom) throw std::runtime_error("boom");
  }
};

TEST(EventQueueLifetime, ThrowingClosureIsDestroyedAndItsSlotReused) {
  EventQueue q;
  int dtors = 0;
  const void* thrower = nullptr;
  const void* next = nullptr;
  struct Boom {
    Where w;  // first, so it sits at the start of the slot
    Tracker t;
    void operator()() const { w(); }
  };
  q.schedule(1, Boom{Where{&thrower, true}, Tracker(&dtors)});
  EXPECT_THROW(q.step(), std::runtime_error);
  EXPECT_EQ(dtors, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 1u);
  q.schedule(1, Where{&next});
  q.run();
  EXPECT_EQ(next, thrower);
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueueLifetime, FullSlotClosureRuns) {
  EventQueue q;
  std::array<std::uint64_t, 6> words = {1, 2, 3, 4, 5, 6};
  std::uint64_t sum = 0;
  auto fn = [words, &sum] {
    for (std::uint64_t w : words) sum += w;
  };
  static_assert(sizeof(fn) == EventQueue::kSlotBytes);
  q.schedule(EventQueue::kRingCycles + 7, fn);
  q.schedule(2, std::move(fn));
  q.run();
  EXPECT_EQ(sum, 42u);
}

#if defined(__SANITIZE_ADDRESS__)
// Pools hide reuse from ASan unless they poison what they free.

struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

ccsim::sim::Task note_frame(void** out) { co_await FrameAddress{out}; }

TEST(PoolPoisoning, FreedSlotAndFinishedTaskFrameArePoisoned) {
  EventQueue q;
  const void* slot = nullptr;
  q.schedule(1, Where{&slot});
  q.run();
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(slot));

  void* frame = nullptr;
  {
    ccsim::sim::Task t = note_frame(&frame);
    t.start();
    ASSERT_TRUE(t.done());
    EXPECT_FALSE(__asan_address_is_poisoned(frame));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
}
#endif

} // namespace
