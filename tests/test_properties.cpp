// Property-based tests: randomized workloads swept over protocol x machine
// size x seed, checking invariants that must hold for ANY execution:
//   - no value fabrication: every load returns a value some store wrote,
//   - post-barrier agreement: after a full barrier every processor reads
//     the latest value of every word,
//   - directory/cache agreement at quiescence,
//   - counter conservation: every classified update was delivered; drops
//     pair with prunes; atomic sums are exact under contention.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using mem::DirState;
using mem::LineState;
using proto::Protocol;

using Combo = std::tuple<Protocol, unsigned, unsigned>;  // protocol, P, seed

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(proto::to_string(std::get<0>(info.param))) + "_p" +
         std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

class RandomWorkload : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomWorkload,
    ::testing::Combine(::testing::Values(Protocol::WI, Protocol::PU, Protocol::CU),
                       ::testing::Values(2u, 5u, 8u),
                       ::testing::Values(1u, 2u, 3u)),
    combo_name);

TEST_P(RandomWorkload, LoadsNeverFabricateValues) {
  const auto& [p, n, seed] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  // Small cache to force evictions and conflict traffic.
  cfg.cache_bytes = 1024;
  Machine m(cfg);

  constexpr unsigned kWords = 24;
  const Addr base = m.alloc().allocate(kWords * mem::kWordSize, mem::kBlockSize);

  // Every store writes (proc_id, sequence) encoded uniquely; a load must
  // return 0 (initial) or some previously-stored encoding for that word.
  // (Atomics are excluded here -- their effects become globally visible
  // before the issuing coroutine can record them, so a sound oracle would
  // need protocol knowledge; ContendedAtomicSumsAreExact covers them.)
  std::vector<std::set<std::uint64_t>> written(kWords);
  for (unsigned w = 0; w < kWords; ++w) written[w].insert(0);

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(seed * 977, c.id()));
    for (int i = 0; i < 120; ++i) {
      const unsigned w = static_cast<unsigned>(rng.below(kWords));
      const Addr a = base + w * mem::kWordSize;
      const auto kind = rng.below(10);
      if (kind < 5) {
        const std::uint64_t v = co_await c.load(a);
        if (!written[w].contains(v))
          throw std::logic_error("load returned a never-written value");
      } else if (kind < 9) {
        const std::uint64_t v = (std::uint64_t(c.id() + 1) << 32) |
                                (std::uint64_t(i) << 8) | w;
        written[w].insert(v);  // record before issuing: visible any time after
        co_await c.store(a, v);
      } else {
        co_await c.fence();
      }
    }
  });
}

TEST_P(RandomWorkload, PostBarrierAgreement) {
  const auto& [p, n, seed] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  sync::DisseminationBarrier barrier(m);

  constexpr unsigned kSlots = 8;
  const Addr base = m.alloc().allocate(kSlots * mem::kWordSize, mem::kBlockSize);

  // Each round: a designated writer updates slot values; after the
  // barrier, every processor must read the round's values.
  const int rounds = 15;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int r = 0; r < rounds; ++r) {
      const NodeId writer = static_cast<NodeId>((r * 7 + seed) % m.nprocs());
      if (c.id() == writer) {
        for (unsigned s = 0; s < kSlots; ++s)
          co_await c.store(base + s * mem::kWordSize,
                           (std::uint64_t(r + 1) << 8) | s);
      }
      co_await c.fence();
      co_await barrier.wait(c);
      for (unsigned s = 0; s < kSlots; ++s) {
        const std::uint64_t v = co_await c.load(base + s * mem::kWordSize);
        if (v != ((std::uint64_t(r + 1) << 8) | s))
          throw std::logic_error("stale value visible after barrier");
      }
      co_await barrier.wait(c);
    }
  });
}

TEST_P(RandomWorkload, DirectoryCacheAgreementAtQuiescence) {
  const auto& [p, n, seed] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  cfg.cache_bytes = 2048;
  Machine m(cfg);
  constexpr unsigned kWords = 40;
  const Addr base = m.alloc().allocate(kWords * mem::kWordSize, mem::kBlockSize);

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(seed * 1313, c.id()));
    for (int i = 0; i < 150; ++i) {
      const Addr a = base + rng.below(kWords) * mem::kWordSize;
      if (rng.below(2))
        (void)co_await c.load(a);
      else
        co_await c.store(a, rng.next());
    }
    co_await c.fence();
  });

  // At quiescence: every valid cached copy must be recorded at the home,
  // and every exclusive/private owner really holds the line.
  for (NodeId i = 0; i < n; ++i) {
    auto& cache = m.node(i).cache_ctrl().cache();
    for (unsigned w = 0; w < kWords; w += mem::kWordsPerBlock) {
      const mem::BlockAddr b = mem::block_of(base + w * mem::kWordSize);
      const auto* e = m.homes().find(b);
      if (const auto* line = cache.find(b)) {
        ASSERT_NE(e, nullptr);
        switch (line->state) {
          case LineState::Shared:
          case LineState::ValidU:
            EXPECT_TRUE(e->has_sharer(i))
                << "proc " << i << " holds block " << b << " unrecorded";
            break;
          case LineState::Modified:
            EXPECT_EQ(e->state, DirState::Exclusive);
            EXPECT_EQ(e->owner, i);
            break;
          case LineState::PrivateDirty:
            EXPECT_EQ(e->state, DirState::Private);
            EXPECT_EQ(e->owner, i);
            break;
          default:
            break;
        }
      }
      if (e && e->state == DirState::Exclusive) {
        const auto* line = m.node(e->owner).cache_ctrl().cache().find(b);
        EXPECT_NE(line, nullptr) << "directory names an owner without the line";
      }
    }
  }
}

TEST_P(RandomWorkload, ContendedAtomicSumsAreExact) {
  const auto& [p, n, seed] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  constexpr unsigned kCtrs = 4;
  const Addr base = m.alloc().allocate(kCtrs * mem::kWordSize, mem::kBlockSize);
  std::vector<std::uint64_t> expected(kCtrs, 0);

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(seed * 31337, c.id()));
    for (int i = 0; i < 60; ++i) {
      const unsigned k = static_cast<unsigned>(rng.below(kCtrs));
      const std::uint64_t d = 1 + rng.below(5);
      expected[k] += d;  // host-side oracle (single-threaded simulator)
      (void)co_await c.fetch_add(base + k * mem::kWordSize, d);
      if (rng.below(4) == 0) (void)co_await c.load(base + k * mem::kWordSize);
    }
  });
  for (unsigned k = 0; k < kCtrs; ++k)
    EXPECT_EQ(m.peek(base + k * mem::kWordSize), expected[k]) << "counter " << k;
}

TEST_P(RandomWorkload, HybridRandomDomainsKeepAllInvariants) {
  // Same randomized access pattern, but on a hybrid machine with every
  // block randomly bound to WI/PU/CU: value-fabrication and atomic-sum
  // invariants, and the checker's audit of every engine's cache, must hold
  // across domain boundaries.
  const auto& [p, n, seed] = GetParam();
  MachineConfig cfg;
  cfg.protocol = Protocol::Hybrid;
  cfg.nprocs = n;
  cfg.obs.check_invariants = true;
  Machine m(cfg);
  constexpr unsigned kWords = 24;
  const Addr base = m.alloc().allocate(kWords * mem::kWordSize, mem::kBlockSize);
  sim::Rng bind_rng(seed * 7919);
  for (unsigned w = 0; w < kWords; w += mem::kWordsPerBlock) {
    const Addr a = base + w * mem::kWordSize;
    switch (bind_rng.below(4)) {
      case 0: m.bind_protocol(a, mem::kBlockSize, Protocol::WI); break;
      case 1: m.bind_protocol(a, mem::kBlockSize, Protocol::PU); break;
      case 2: m.bind_protocol(a, mem::kBlockSize, Protocol::CU); break;
      default: m.bind_protocol(a, mem::kBlockSize, p); break;  // the protocol axis
    }
  }
  std::vector<std::set<std::uint64_t>> written(kWords);
  for (unsigned w = 0; w < kWords; ++w) written[w].insert(0);
  std::vector<std::uint64_t> sum_expect(kWords, 0);
  const Addr ctr = m.alloc().allocate_on(0, 8);
  m.bind_protocol(ctr, 8, Protocol::PU);
  std::uint64_t ctr_expect = 0;

  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(seed * 977 + 5, c.id()));
    for (int i = 0; i < 100; ++i) {
      const unsigned w = static_cast<unsigned>(rng.below(kWords));
      const Addr a = base + w * mem::kWordSize;
      const auto kind = rng.below(10);
      if (kind < 4) {
        const std::uint64_t v = co_await c.load(a);
        if (!written[w].contains(v))
          throw std::logic_error("hybrid load fabricated a value");
      } else if (kind < 8) {
        const std::uint64_t v = (std::uint64_t(c.id() + 1) << 32) |
                                (std::uint64_t(i) << 8) | w;
        written[w].insert(v);
        co_await c.store(a, v);
      } else if (kind < 9) {
        ++ctr_expect;
        (void)co_await c.fetch_add(ctr, 1);
      } else {
        co_await c.fence();
      }
    }
  });
  EXPECT_EQ(m.peek(ctr), ctr_expect);
  EXPECT_GT(m.invariant_checks(), 0u);
}

TEST_P(RandomWorkload, MixedConstructsStressRun) {
  const auto& [p, n, seed] = GetParam();
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = n;
  Machine m(cfg);
  sync::TicketLock lock(m);
  sync::TreeBarrier barrier(m);
  const Addr acc = m.alloc().allocate_on(0, 8);

  const int rounds = 10;
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    sim::Rng rng(sim::Rng::derive(seed * 3, c.id()));
    for (int r = 0; r < rounds; ++r) {
      co_await c.think(rng.below(60));
      co_await lock.acquire(c);
      const std::uint64_t v = co_await c.load(acc);
      co_await c.store(acc, v + 1);
      co_await lock.release(c);
      co_await barrier.wait(c);
      if (c.id() == 0) {
        const std::uint64_t total = co_await c.load(acc);
        if (total != static_cast<std::uint64_t>(r + 1) * m.nprocs())
          throw std::logic_error("lost increments in mixed-construct run");
      }
      co_await barrier.wait(c);
    }
  });
  EXPECT_EQ(m.peek(acc), static_cast<std::uint64_t>(rounds) * n);
}

} // namespace
