// Invariant checker and watchdog tests: injected violations must be caught
// with block/node/cycle diagnostics, injected hangs must trip the watchdog,
// and the checker must be a pure observer (identical cycle counts on/off).
#include "obs/invariants.hpp"

#include "harness/machine.hpp"
#include "harness/stress.hpp"
#include "harness/workloads.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace ccsim;
using harness::DeadlockError;
using harness::Machine;
using harness::MachineConfig;
using obs::InvariantViolation;

MachineConfig checked(proto::Protocol p, unsigned nprocs = 2) {
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  cfg.obs.check_invariants = true;
  return cfg;
}

TEST(InvariantChecker, CleanRunsPassOnAllProtocols) {
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    Machine m(checked(p));
    const Addr a = m.alloc().allocate_on(0, 8, "word");
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a + 0, 1 + c.id());  // both write the same word: races
      co_await c.fence();                   // are legal, corruption is not
      (void)co_await c.load(a);
    });
    EXPECT_GT(m.invariant_checks(), 0u) << proto::to_string(p);
  }
}

TEST(InvariantChecker, InjectedSecondWritableCopyFailsTheAudit) {
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  const mem::BlockAddr b = mem::block_of(a);
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();  // block is now Modified in cache 0
      // Inject the violation: forge a second writable copy in cache 1.
      mem::CacheLine& l = m.node(1).cache_ctrl().cache().set_for(b);
      l.block = b;
      l.state = mem::LineState::Modified;
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("victim"), std::string::npos) << "symbolic name missing";
    EXPECT_NE(msg.find("Exclusive"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1:Modified"), std::string::npos)
        << "forged holder missing from the cache listing:\n"
        << msg;
    // The block's event tail is kept as records and formatted into the report.
    const std::size_t tail = msg.find("recent events for block:\n");
    ASSERT_NE(tail, std::string::npos) << msg;
    EXPECT_NE(msg.find("] cache0 <- DataX addr=0x10000000 from 0\n", tail), std::string::npos)
        << msg;
  }
}

TEST(InvariantChecker, InjectedSecondWritableCopyIsCaughtOnTheFly) {
  // Forge the extra writable copy while the run is still going: the next
  // upgrade's on_writable notification must trip the continuous SWMR check
  // (not just the final audit).
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  const Addr other = m.alloc().allocate_on(1, 8, "other");
  const mem::BlockAddr b = mem::block_of(a);
  EXPECT_THROW(
      m.run({[&](cpu::Cpu& c) -> sim::Task {
        co_await c.store(other, 1);
        co_await c.fence();
        mem::CacheLine& l = m.node(1).cache_ctrl().cache().set_for(b);
        l.block = b;
        l.state = mem::LineState::Modified;
        co_await c.store(a, 7);  // cache 0 acquires a writable copy of b
        co_await c.fence();
      }}),
      InvariantViolation);
}

TEST(InvariantChecker, CorruptedCacheDataFailsTheAudit) {
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();
      // Flip the dirty copy behind the protocol's back: the final audit
      // compares it against shadow memory (which remembers 7).
      m.node(0).cache_ctrl().cache().write(a, 8, 99);
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("data mismatch at quiescence"), std::string::npos) << msg;
    EXPECT_NE(msg.find("victim"), std::string::npos);
    EXPECT_NE(msg.find("0x63"), std::string::npos) << msg;  // the corrupted 99
    EXPECT_NE(msg.find("0x7"), std::string::npos) << msg;   // the real value
  }
}

TEST(InvariantChecker, DataMismatchNamesTheCopyThatDiffers) {
  // The report names the copy the audit compared: a dirty owner's cache,
  // or one clean copy among several.
  const auto report = [](bool clean_copy_on_node_1) -> std::string {
    Machine m(checked(proto::Protocol::WI));
    const Addr a = m.alloc().allocate_on(0, 8, "victim");
    const Addr flag = m.alloc().allocate_on(0, 8, "flag");
    std::vector<Machine::Program> ps;
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();
      if (!clean_copy_on_node_1) m.node(0).cache_ctrl().cache().write(a, 8, 99);
      co_await c.store(flag, 1);
    });
    if (clean_copy_on_node_1)
      ps.push_back([&](cpu::Cpu& c) -> sim::Task {
        co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
        (void)co_await c.load(a);  // a clean copy, after the owner's fence
        m.node(1).cache_ctrl().cache().write(a, 8, 99);
      });
    try {
      m.run(ps);
    } catch (const InvariantViolation& e) {
      return e.what();
    }
    return "no violation";
  };
  const std::string owner = report(false);
  EXPECT_NE(owner.find("\n  word 0x10000000 owner 0 cache holds 0x63, last "
                       "globally-ordered value 0x7\n"),
            std::string::npos)
      << owner;
  const std::string clean = report(true);
  EXPECT_NE(clean.find("\n  word 0x10000000 node 1 cache holds 0x63, last "
                       "globally-ordered value 0x7\n"),
            std::string::npos)
      << clean;
}

TEST(InvariantChecker, AuditReportsTheLowestViolatingBlockFirst) {
  // Two corrupted blocks, the lower one homed at the higher node: the
  // audit walks directory entries in block order, whatever their homes.
  Machine m(checked(proto::Protocol::WI));
  const Addr low = m.alloc().allocate_on(1, 8, "low");
  const Addr high = m.alloc().allocate_on(0, 8, "high");
  ASSERT_LT(mem::block_of(low), mem::block_of(high));
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(low, 7);
      co_await c.store(high, 8);
      co_await c.fence();
      m.node(0).cache_ctrl().cache().write(low, 8, 99);
      m.node(0).cache_ctrl().cache().write(high, 8, 98);
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("data mismatch at quiescence"), std::string::npos) << msg;
    EXPECT_NE(msg.find(", \"low\", home 1)"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("\"high\""), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, CachedBlockWithoutAHomeEntryFailsTheAudit) {
  // A valid line for a block no home transaction touched: only the
  // audit's reverse pass (cache lines against home entries) sees it.
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "ghost");
  const mem::BlockAddr b = mem::block_of(a);
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.think(1);
      mem::CacheLine& l = m.node(0).cache_ctrl().cache().set_for(b);
      l.block = b;
      l.state = mem::LineState::Shared;
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cached block with no directory entry at its home\n  node 0 "
                       "holds Shared"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("  directory: (no entry)\n"), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, CorruptedValueIsCaughtAtTheReadingProcessor) {
  // The same corruption, but observed by a later load: the read-membership
  // check fires at the reader, mid-run.
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();
      m.node(0).cache_ctrl().cache().write(a, 8, 99);
      (void)co_await c.load(a);  // hits the corrupted line
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no write produced"), std::string::npos) << msg;
    EXPECT_NE(msg.find("by node 0"), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, HybridEngineCachesAreChecked) {
  // A Hybrid node keeps one cache per engine, and the checker watches all
  // of them: a writable copy forged in node 1's PU engine cache trips the
  // single-writer check when node 0 is granted the block privately.
  Machine m(checked(proto::Protocol::Hybrid));
  const Addr a = m.alloc().allocate_on(1, 8, "pu_block");
  m.bind_protocol(a, 8, proto::Protocol::PU);
  const mem::BlockAddr b = mem::block_of(a);
  mem::CacheLine& l = m.node(1).cache_ctrl().cache_for(b).set_for(b);
  l.block = b;
  l.state = mem::LineState::PrivateDirty;
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      (void)co_await c.load(a);  // node 0 is the block's only sharer...
      co_await c.store(a, 7);    // ...so its write-through earns the grant
      co_await c.fence();
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("two writable copies"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node 1 holds PrivateDirty"), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, HybridCorruptedCuCopyFailsTheAudit) {
  // The quiescence audit reads each copy from the engine cache holding it.
  Machine m(checked(proto::Protocol::Hybrid));
  const Addr a = m.alloc().allocate_on(0, 8, "cu_block");
  m.bind_protocol(a, 8, proto::Protocol::CU);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 7);
    co_await c.fence();
  });
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 7; });
    m.node(1).cache_ctrl().cache_for(mem::block_of(a)).write(a, 8, 99);
  });
  try {
    m.run(ps);
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("node 1 cache holds 0x63"), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, ObserverDoesNotChangeSimulatedCycles) {
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    harness::LockParams lp;
    lp.total_acquires = 64;
    MachineConfig plain;
    plain.protocol = p;
    plain.nprocs = 4;
    MachineConfig check = plain;
    check.obs.check_invariants = true;
    const auto base =
        harness::run_lock_experiment(plain, harness::LockKind::Ticket, lp);
    const auto audited =
        harness::run_lock_experiment(check, harness::LockKind::Ticket, lp);
    EXPECT_EQ(base.cycles, audited.cycles) << proto::to_string(p);
    EXPECT_EQ(base.invariant_checks, 0u);
    EXPECT_GT(audited.invariant_checks, 0u);
  }
}

TEST(InvariantChecker, HistoryCoversSixtyFourNodeUpdateFanOut) {
  // A PU write is recorded at the home and again at every updated copy, so
  // a fixed 1024-entry history would cover only ~1024/P writes to a widely
  // shared word and, at P=64, forget values a stale copy may still legally
  // return: a false "value no write produced" report.
  EXPECT_EQ(obs::InvariantChecker::history_depth(16), 1024u);
  EXPECT_EQ(obs::InvariantChecker::history_depth(64), 4096u);
  harness::StressParams sp;
  sp.seed = 2;
  sp.segments = 2;
  sp.ops_per_segment = 8;
  const harness::RunResult r =
      harness::run_stress_cell(checked(proto::Protocol::PU, 64), sp);
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(InvariantChecker, ValueHistoryBoundariesThroughTheHooks) {
  // Membership at the edges of a 1024-value history: until the history is
  // full a word may still read as its initial zero, and once it is full
  // only the last 1024 values count.
  obs::InvariantChecker chk(16);
  ASSERT_EQ(obs::InvariantChecker::history_depth(16), 1024u);
  // The report of a read of `v` at `a`, or "" when the read passes.
  const auto read = [&chk](Addr a, std::uint64_t v) -> std::string {
    try {
      chk.on_read(1, a, v);
      return {};
    } catch (const InvariantViolation& e) {
      return e.what();
    }
  };
  const Addr word = mem::kSharedBase;
  for (std::uint64_t v = 1; v <= 1023; ++v) chk.on_global_write(0, word, v);
  EXPECT_EQ(read(word, 0), "");
  EXPECT_EQ(read(word, 1), "");
  EXPECT_EQ(read(word, 1023), "");

  chk.on_global_write(0, word, 1024);  // the history is now full
  const std::string zero = read(word, 0);
  EXPECT_NE(zero.find("read of a value no write produced"), std::string::npos) << zero;
  EXPECT_NE(zero.find("(last globally-ordered value 0x400)"), std::string::npos) << zero;

  chk.on_global_write(0, word, 1025);  // 1 falls out
  EXPECT_NE(read(word, 1), "");
  EXPECT_EQ(read(word, 2), "");
  EXPECT_EQ(read(word, 1025), "");

  // Values a copy shows before they are globally ordered: an applied
  // update delivery and a local write are admitted, a stale delivery is not.
  const Addr updated = mem::kSharedBase + mem::kBlockSize;
  const Addr local = updated + mem::kWordSize;
  chk.on_update_delivered(1, updated, 0, obs::Delivery::Applied, 42);
  chk.on_update_delivered(1, updated, 0, obs::Delivery::Stale, 43);
  chk.on_local_write(1, local, 77);
  EXPECT_EQ(read(updated, 42), "");
  EXPECT_EQ(read(updated, 0), "");
  EXPECT_EQ(read(local, 77), "");
  for (const auto& [a, v] : {std::pair{updated, std::uint64_t{43}},
                             std::pair{local, std::uint64_t{78}}}) {
    const std::string what = read(a, v);
    EXPECT_NE(what.find("read of a value no write produced"), std::string::npos) << what;
    EXPECT_NE(what.find("(word never globally written)"), std::string::npos) << what;
  }
}

TEST(Watchdog, LostWakeupDrainsTheQueueAndThrowsDeadlockError) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  std::ostringstream trace;
  obs::TextSink sink(trace);  // a sink switches on the trace log
  cfg.obs.sink = &sink;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8, "flag");
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  try {
    m.run(ps);
    FAIL() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drained with programs waiting"), std::string::npos);
    EXPECT_NE(msg.find("stuck processors: 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node occupancy"), std::string::npos) << msg;
    EXPECT_NE(msg.find("last trace events"), std::string::npos) << msg;
  }
}

TEST(Watchdog, LivelockTripsTheStallBound) {
  // The queue never drains (processor 1 thinks forever) but no memory
  // operation completes after the spin's first fill: only the stall-bound
  // watchdog can catch this.
  MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.watchdog_stall_cycles = 5000;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8, "flag");
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  ps.push_back([](cpu::Cpu& c) -> sim::Task {
    for (;;) co_await c.think(50);
  });
  try {
    m.run(ps);
    FAIL() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
  }
}

TEST(Watchdog, DoesNotFireOnAHealthyRun) {
  MachineConfig cfg;
  cfg.nprocs = 4;
  cfg.watchdog_stall_cycles = 100000;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8);
  EXPECT_NO_THROW(m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 50; ++i) {
      co_await c.fetch_add(a, 1);
      co_await c.think(200);
    }
  }));
  EXPECT_EQ(m.peek(a), 4u * 50u);
}

TEST(Watchdog, StallBoundDoesNotChangeSimulatedCycles) {
  harness::LockParams lp;
  lp.total_acquires = 64;
  MachineConfig plain;
  plain.nprocs = 4;
  MachineConfig watched = plain;
  watched.watchdog_stall_cycles = 1'000'000;
  const auto a = harness::run_lock_experiment(plain, harness::LockKind::Ticket, lp);
  const auto b = harness::run_lock_experiment(watched, harness::LockKind::Ticket, lp);
  EXPECT_EQ(a.cycles, b.cycles);
}

} // namespace
