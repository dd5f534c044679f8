// Once warm, the event kernel, the network and coroutine frames allocate
// nothing per event, message or task. This binary replaces the global
// operator new with a counting one; each test runs its scenario once to
// warm the pools, then runs the same scenario again and expects no
// allocation. Delays are relative, so the second pass reaches exactly the
// pool depths the first one did.
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ccsim;

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Runs `pass` twice and returns the allocations the second pass made.
template <class Pass>
std::uint64_t allocations_when_warm(Pass&& pass) {
  pass();
  const std::uint64_t before = allocations();
  pass();
  return allocations() - before;
}

std::uint64_t* volatile g_escape = nullptr;

TEST(AllocFree, CountingOperatorNewSeesAllocations) {
  const std::uint64_t before = allocations();
  g_escape = new std::uint64_t(7);
  EXPECT_EQ(allocations() - before, 1u);
  delete g_escape;
}

/// An event that reschedules itself with a paper_update-like delay mix
/// until `left` runs out: mostly 1-2 cycles, deliveries at 10-400, and
/// about a tenth beyond the calendar ring.
struct Tick {
  sim::EventQueue* q;
  sim::Rng* rng;
  std::uint64_t* left;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    const std::uint64_t r = rng->below(10);
    const Cycle d = r < 6   ? rng->between(1, 2)
                    : r < 9 ? rng->between(10, 400)
                            : rng->between(1025, 4000);
    q->schedule(d, *this);
  }
};

TEST(AllocFree, WarmEventQueueRunsWithoutAllocating) {
  sim::EventQueue q;
  std::uint64_t executed = 0;
  const std::uint64_t extra = allocations_when_warm([&] {
    sim::Rng rng(11);
    std::uint64_t left = 100000;
    const std::uint64_t start = q.executed();
    for (int i = 0; i < 1000; ++i) q.schedule(rng.below(64), Tick{&q, &rng, &left});
    q.run();
    executed = q.executed() - start;
  });
  EXPECT_EQ(extra, 0u);
  EXPECT_GE(executed, 100000u);
}

/// Replies to every delivery with a new message until `left` runs out,
/// keeping 64 messages in flight across 16 nodes.
struct Echo final : net::MessageSink {
  net::Network* net = nullptr;
  sim::Rng rng{5};
  std::uint64_t left = 0;
  std::uint64_t delivered = 0;
  void deliver(const net::Message& in) override {
    ++delivered;
    if (left == 0) return;
    --left;
    net::Message m;
    m.type = rng.below(2) ? net::MsgType::DataS : net::MsgType::GetS;
    m.has_block = m.type == net::MsgType::DataS;
    m.src = in.dst;
    m.dst = static_cast<NodeId>(rng.below(16));
    m.addr = in.addr;
    net->send(m);
  }
};

TEST(AllocFree, NetworkDeliversWithoutAllocating) {
  sim::EventQueue q;
  net::Network net(q, net::MeshTopology(16), {}, nullptr);
  Echo echo;
  echo.net = &net;
  for (NodeId n = 0; n < 16; ++n) net.attach(n, echo);
  std::uint64_t delivered = 0;
  const std::uint64_t extra = allocations_when_warm([&] {
    echo.rng = sim::Rng(5);
    echo.left = 10000;
    const std::uint64_t start = echo.delivered;
    for (NodeId i = 0; i < 64; ++i) {
      net::Message m;
      m.type = net::MsgType::GetS;
      m.src = i % 16;
      m.dst = (i * 7 + 3) % 16;
      net.send(m);
    }
    q.run();
    delivered = echo.delivered - start;
  });
  EXPECT_EQ(extra, 0u);
  EXPECT_EQ(delivered, 10064u);
}

sim::Task leaf(sim::EventQueue& q) { co_await sim::delay(q, 1); }
sim::Task branch(sim::EventQueue& q) { co_await leaf(q); }

TEST(AllocFree, TasksReuseFramesAndStillCountThem) {
  sim::EventQueue q;
  std::uint64_t frames = 0;
  std::uint64_t finished = 0;
  const std::uint64_t extra = allocations_when_warm([&] {
    const std::uint64_t start = sim::frames_allocated();
    finished = 0;
    for (int i = 0; i < 10000; ++i) {
      sim::Task t = branch(q);
      t.start();
      q.run();
      finished += t.done();
    }
    frames = sim::frames_allocated() - start;
  });
  EXPECT_EQ(extra, 0u);
  EXPECT_EQ(finished, 10000u);
  EXPECT_EQ(frames, 20000u);  // a branch frame and a leaf frame per task
}

} // namespace
