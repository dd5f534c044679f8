// Sharing-pattern classifier tests: taxonomy decisions on hand-fed event
// streams, the protocol-replay cost model, the Machine-level report and
// JSON emission, the shared stats::Table formatter, and -- the
// load-bearing guarantee -- zero guest impact: simulated results are
// byte-identical with the tracker on or off.
#include "harness/obs_session.hpp"
#include "harness/workloads.hpp"
#include "obs/sharing.hpp"
#include "stats/json.hpp"
#include "stats/report.hpp"
#include "stats/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using namespace ccsim;

constexpr Addr kA = mem::kSharedBase;  ///< word 0 of a shared block
constexpr Addr kB = mem::kSharedBase + mem::kBlockSize;

obs::SharingReport::Row only_row(const obs::SharingTracker& t) {
  const obs::SharingReport r = t.report(nullptr);
  EXPECT_EQ(r.blocks.size(), 1u);
  return r.blocks.at(0);
}

TEST(SharingTracker, RejectsBadNprocs) {
  EXPECT_THROW(obs::SharingTracker t(0, 4), std::invalid_argument);
  EXPECT_THROW(obs::SharingTracker t(65, 4), std::invalid_argument);
}

TEST(SharingTracker, SixtyFourNodeSetsKeepHighNodesApart) {
  // Nodes 8 and 40 would share a bit of a 32-bit set; node 63 exercises the
  // top slot of every per-node array.
  obs::SharingTracker t(64, 4);
  t.on_read(63, kB, 0);
  for (int i = 0; i < 10; ++i) {
    t.on_global_write(8, kA, 0);
    t.on_global_write(40, kA + 8, 0);
    t.on_global_write(0, kB, 0);
  }
  t.finalize();
  const obs::SharingReport r = t.report(nullptr);
  ASSERT_EQ(r.blocks.size(), 2u);
  for (const obs::SharingReport::Row& row : r.blocks) {
    EXPECT_EQ(row.accessors, 2u);
    if (row.base == kA) {
      EXPECT_EQ(row.pattern, obs::SharingPattern::FalseShared);
      EXPECT_EQ(row.writer_count, 2u);
    } else {
      // Node 63 holds a copy through all ten writes under PU; under CU its
      // counter trips after four unread updates.
      EXPECT_EQ(row.pu_updates, 10u);
      EXPECT_EQ(row.cu_updates, 4u);
    }
  }
}

TEST(SharingTracker, IgnoresPrivateAddressesAndPokes) {
  obs::SharingTracker t(4, 4);
  t.on_read(0, 0x100, 0);          // below kSharedBase
  t.on_global_write(1, 0x200, 0);  // below kSharedBase
  t.on_poke(kA, 0);                // initialization, deliberately ignored
  t.finalize();
  EXPECT_TRUE(t.report(nullptr).blocks.empty());
  EXPECT_TRUE(t.hot(16, nullptr).empty());
}

TEST(SharingTracker, HotHooksStayOutOfTheSharingReport) {
  // One record per block serves both reports: a block only hot-block hooks
  // touched ranks in hot() but gains no sharing row, and a block only
  // sharing hooks touched scores 0 and stays out of hot().
  obs::SharingTracker t(4, 4);
  t.on_home_txn(mem::block_of(kA));
  t.on_miss(1, kA, stats::MissClass::Cold);
  t.on_read(2, kB, 0);
  t.finalize();
  EXPECT_EQ(only_row(t).base, kB);
  const std::vector<obs::HotBlock> hot = t.hot(16, nullptr);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].base, kA);
  EXPECT_EQ(hot[0].cell.score(), 2u);
}

TEST(SharingClassify, PrivateSingleNode) {
  obs::SharingTracker t(4, 4);
  for (int i = 0; i < 10; ++i) {
    t.on_read(2, kA, 0);
    t.on_global_write(2, kA, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pattern, obs::SharingPattern::Private);
  EXPECT_EQ(row.accessors, 1u);
  EXPECT_NE(row.best, proto::Protocol::CU)
      << "CU has no private-block mode; it writes through forever";
}

TEST(SharingClassify, ReadOnlyManyReaders) {
  obs::SharingTracker t(8, 4);
  for (NodeId n = 0; n < 8; ++n) t.on_read(n, kA + n % 2 * 8, 0);
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pattern, obs::SharingPattern::ReadOnly);
  EXPECT_EQ(row.writes, 0u);
}

TEST(SharingClassify, FalseSharedWordDisjointWriters) {
  // Nodes 0 and 1 each hammer their own word of one block and never touch
  // the other's: classic false sharing.
  obs::SharingTracker t(4, 4);
  for (int i = 0; i < 20; ++i) {
    t.on_read(0, kA, 0);
    t.on_global_write(0, kA, 0);
    t.on_read(1, kA + 8, 0);
    t.on_global_write(1, kA + 8, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pattern, obs::SharingPattern::FalseShared);
  EXPECT_TRUE(row.word_disjoint);
}

TEST(SharingClassify, ProducerConsumerDisjointSets) {
  // Node 0 writes a flag word; nodes 1..3 read it. Writer and reader sets
  // never overlap, and they share the word (not false sharing).
  obs::SharingTracker t(4, 4);
  for (int i = 0; i < 10; ++i) {
    t.on_global_write(0, kA, 0);
    t.on_read(1, kA, 0);
    t.on_read(2, kA, 0);
    t.on_read(3, kA, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pattern, obs::SharingPattern::ProducerConsumer);
}

TEST(SharingClassify, MigratoryReadModifyWriteHandoff) {
  // Ownership cycles node to node, each reading what the previous owner
  // wrote before writing itself: every handoff is migratory.
  obs::SharingTracker t(4, 4);
  for (int round = 0; round < 8; ++round) {
    const NodeId n = round % 4;
    t.on_read(n, kA, 0);
    t.on_global_write(n, kA, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pattern, obs::SharingPattern::Migratory);
  EXPECT_GT(row.migratory_handoffs, 0u);
}

TEST(SharingClassify, WidelySharedManyReadersPerInterval) {
  // One writer, seven readers re-reading every interval, writes frequent
  // enough that reads do not dwarf them.
  obs::SharingTracker t(8, 4);
  for (int i = 0; i < 10; ++i) {
    t.on_global_write(0, kA, 0);
    t.on_read(0, kA, 0);
    for (NodeId n = 1; n < 8; ++n) t.on_read(n, kA, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pattern, obs::SharingPattern::WidelyShared);
  EXPECT_GE(row.max_interval_readers, 7u);
}

TEST(SharingClassify, ReadMostlyOutranksWidelyShared) {
  // Rare writes, overwhelming reads: read-mostly even though every
  // interval has many distinct readers (the widely-shared trigger).
  obs::SharingTracker t(8, 4);
  t.on_global_write(0, kA, 0);
  t.on_read(0, kA, 0);
  for (int i = 0; i < 10; ++i)
    for (NodeId n = 1; n < 8; ++n) t.on_read(n, kA, 0);
  t.on_global_write(0, kA, 0);
  for (int i = 0; i < 10; ++i)
    for (NodeId n = 1; n < 8; ++n) t.on_read(n, kA, 0);
  t.finalize();
  const auto row = only_row(t);
  EXPECT_GE(row.reads, 16 * row.writes);
  EXPECT_EQ(row.pattern, obs::SharingPattern::ReadMostly);
}

TEST(SharingReplay, PuMulticastsToAllCopiesCuPrunesIdleOnes) {
  // Node 1 reads once, then node 0 writes 10 times. PU multicasts all ten
  // writes to node 1; the CU replay (threshold 4) delivers four, trips the
  // counter, and the drop costs a re-fetch when node 1 finally returns.
  obs::SharingTracker t(2, 4);
  t.on_read(1, kA, 0);
  for (int i = 0; i < 10; ++i) t.on_global_write(0, kA, 0);
  t.on_read(1, kA, 0);  // returns after the counter tripped: re-fetch
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.pu_updates, 10u);
  EXPECT_EQ(row.cu_updates, 4u);
  EXPECT_EQ(row.cu_refetches, 1u);
}

TEST(SharingReplay, ActiveReaderKeepsReceivingUpdates) {
  // A reader that reads between every pair of writes never trips the
  // counter: CU delivers exactly what PU delivers, no re-fetches.
  obs::SharingTracker t(2, 4);
  t.on_read(1, kA, 0);
  for (int i = 0; i < 10; ++i) {
    t.on_global_write(0, kA, 0);
    t.on_read(1, kA, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_EQ(row.cu_updates, row.pu_updates);
  EXPECT_EQ(row.cu_refetches, 0u);
}

TEST(SharingReplay, CostModelPrefersTheCheaperReplay) {
  // The producer/consumer flag from above: updates are all useful, so the
  // projected PU cost must undercut WI (which pays a miss per episode).
  obs::SharingTracker t(4, 4);
  for (int i = 0; i < 50; ++i) {
    t.on_global_write(0, kA, 0);
    for (NodeId n = 1; n < 4; ++n) t.on_read(n, kA, 0);
  }
  t.finalize();
  const auto row = only_row(t);
  EXPECT_LT(row.cost_pu, row.cost_wi);
  EXPECT_NE(row.best, proto::Protocol::WI);
}

TEST(SharingReport, CheapestProtocolTieOrder) {
  EXPECT_EQ(obs::cheapest_protocol(1, 1, 1), proto::Protocol::WI);
  EXPECT_EQ(obs::cheapest_protocol(2, 1, 1), proto::Protocol::PU);
  EXPECT_EQ(obs::cheapest_protocol(2, 2, 1), proto::Protocol::CU);
  EXPECT_EQ(obs::cheapest_protocol(1, 2, 3), proto::Protocol::WI);
}

TEST(SharingReport, AggregatesBlocksIntoAllocs) {
  obs::SharingTracker t(4, 4);
  // Two blocks, one private to node 0, one producer/consumer.
  for (int i = 0; i < 5; ++i) {
    t.on_read(0, kA, 0);
    t.on_global_write(0, kA, 0);
    t.on_global_write(1, kB, 0);
    t.on_read(2, kB, 0);
  }
  t.finalize();
  const obs::SharingReport r = t.report(nullptr);
  EXPECT_EQ(r.blocks.size(), 2u);
  ASSERT_EQ(r.allocs.size(), 1u) << "unnamed blocks share one group";
  EXPECT_EQ(r.allocs[0].name, "(unnamed)");
  EXPECT_EQ(r.allocs[0].blocks, 2u);
  std::uint64_t census = 0;
  for (std::uint64_t n : r.pattern_blocks) census += n;
  EXPECT_EQ(census, r.blocks.size());
  EXPECT_EQ(r.total_cost(r.recommended),
            std::min({r.total_wi, r.total_pu, r.total_cu}));
}

// --- Machine-level: real runs with the tracker attached. ---------------

harness::RunResult tiny_lock_run(bool sharing,
                                 proto::Protocol p = proto::Protocol::WI) {
  harness::MachineConfig cfg;
  cfg.nprocs = 4;
  cfg.protocol = p;
  cfg.obs.sharing = sharing;
  harness::LockParams lp;
  lp.total_acquires = 64;
  return harness::run_lock_experiment(cfg, harness::LockKind::Ticket, lp);
}

TEST(SharingMachine, RealRunProducesAReport) {
  const harness::RunResult r = tiny_lock_run(true);
  ASSERT_TRUE(r.sharing.enabled());
  EXPECT_GT(r.sharing.blocks.size(), 0u);
  EXPECT_GT(r.sharing.total_wi, 0.0);
  bool saw_named = false;
  for (const auto& row : r.sharing.blocks) {
    saw_named |= !row.name.empty();
    EXPECT_GT(row.accessors, 0u);
  }
  EXPECT_TRUE(saw_named) << "lock state is allocated with symbolic names";
  bool saw_lock_alloc = false;
  for (const auto& a : r.sharing.allocs) saw_lock_alloc |= a.name == "ticket";
  EXPECT_TRUE(saw_lock_alloc);
}

TEST(SharingMachine, TrackerNeverPerturbsSimulatedResults) {
  // The no-guest-perturbation rule, end to end, under all three protocols
  // plus Hybrid: identical simulated cycles, latency metric and
  // categorized counters with the tracker attached or absent.
  for (proto::Protocol p : {proto::Protocol::WI, proto::Protocol::PU,
                            proto::Protocol::CU, proto::Protocol::Hybrid}) {
    const harness::RunResult off = tiny_lock_run(false, p);
    const harness::RunResult on = tiny_lock_run(true, p);
    EXPECT_FALSE(off.sharing.enabled());
    ASSERT_TRUE(on.sharing.enabled());
    EXPECT_EQ(off.cycles, on.cycles) << proto::to_string(p);
    EXPECT_DOUBLE_EQ(off.avg_latency, on.avg_latency) << proto::to_string(p);
    EXPECT_EQ(stats::to_json(off.counters), stats::to_json(on.counters))
        << proto::to_string(p);
  }
}

TEST(SharingMachine, UpdateProtocolRunCountsDeliveriesAndWaste) {
  const harness::RunResult r = tiny_lock_run(true, proto::Protocol::PU);
  ASSERT_TRUE(r.sharing.enabled());
  std::uint64_t delivered = 0, wasted = 0;
  for (const auto& row : r.sharing.blocks) {
    delivered += row.updates_delivered;
    wasted += row.updates_wasted;
    EXPECT_LE(row.updates_wasted, row.updates_delivered);
  }
  EXPECT_GT(delivered, 0u) << "a contended PU lock multicasts updates";
  EXPECT_GT(wasted, 0u) << "spinning writers overwrite unread deliveries";
}

TEST(SharingMachine, InvalProtocolRunCountsInvalidations) {
  const harness::RunResult r = tiny_lock_run(true, proto::Protocol::WI);
  std::uint64_t invals = 0;
  for (const auto& row : r.sharing.blocks) invals += row.invals_sent;
  EXPECT_GT(invals, 0u) << "a contended WI lock invalidates spinners";
}

TEST(SharingMachine, AdviceIsProtocolInvariant) {
  // The advisor consumes the global write order and reader sets, both of
  // which every protocol preserves: the same program must yield the same
  // recommendation whichever protocol observed it.
  const harness::RunResult wi = tiny_lock_run(true, proto::Protocol::WI);
  const harness::RunResult pu = tiny_lock_run(true, proto::Protocol::PU);
  EXPECT_EQ(wi.sharing.recommended, pu.sharing.recommended);
  ASSERT_EQ(wi.sharing.blocks.size(), pu.sharing.blocks.size());
  for (std::size_t i = 0; i < wi.sharing.blocks.size(); ++i)
    EXPECT_EQ(wi.sharing.blocks[i].pattern, pu.sharing.blocks[i].pattern)
        << wi.sharing.blocks[i].name;
}

TEST(SharingJson, RunFieldsEmitSectionOnlyWhenEnabled) {
  const harness::RunResult off = tiny_lock_run(false);
  std::ostringstream a;
  {
    stats::JsonWriter w(a);
    w.begin_object();
    harness::write_run_fields(w, off);
    w.end_object();
  }
  EXPECT_EQ(a.str().find("\"sharing\""), std::string::npos);

  const harness::RunResult on = tiny_lock_run(true);
  std::ostringstream b;
  {
    stats::JsonWriter w(b);
    w.begin_object();
    harness::write_run_fields(w, on);
    w.end_object();
  }
  const stats::JsonValue doc = stats::parse_json(b.str());
  const stats::JsonValue& s = doc.at("sharing");
  EXPECT_EQ(s.at("schema").integer, obs::SharingReport::kSchema);
  EXPECT_EQ(s.at("nprocs").integer, 4u);
  ASSERT_GT(s.at("blocks").array.size(), 0u);
  const stats::JsonValue& blk = s.at("blocks").array[0];
  EXPECT_NE(blk.find("pattern"), nullptr);
  EXPECT_NE(blk.at("cost").find("WI"), nullptr);
  EXPECT_NE(blk.at("replay").find("cu_refetches"), nullptr);
  EXPECT_NE(s.find("recommended"), nullptr);
  EXPECT_GT(s.at("allocs").array.size(), 0u);
}

TEST(SharingJson, StrippingSectionRestoresByteIdentity) {
  const harness::RunResult off = tiny_lock_run(false);
  harness::RunResult stripped = tiny_lock_run(true);
  stripped.sharing = obs::SharingReport{};
  std::ostringstream a, b;
  {
    stats::JsonWriter w(a);
    w.begin_object();
    harness::write_run_fields(w, off);
    w.end_object();
  }
  {
    stats::JsonWriter w(b);
    w.begin_object();
    harness::write_run_fields(w, stripped);
    w.end_object();
  }
  EXPECT_EQ(a.str(), b.str());
}

TEST(SharingReportPrint, NoOpWhenDisabledTableWhenEnabled) {
  std::ostringstream os;
  stats::print_sharing(os, obs::SharingReport{});
  EXPECT_TRUE(os.str().empty());
  const harness::RunResult r = tiny_lock_run(true);
  stats::print_sharing(os, r.sharing);
  EXPECT_NE(os.str().find("recommend"), std::string::npos);
  EXPECT_NE(os.str().find("per allocation:"), std::string::npos);
  EXPECT_NE(os.str().find("ticket"), std::string::npos);
}

// --- stats::Table (the shared formatter the reports above print with). --

TEST(StatsTable, AutoWidthRightAlignAndRule) {
  stats::Table t = stats::Table::figure({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(),
            "name        v\n"
            "-------------\n"
            "a           1\n"
            "long-name  22\n");
}

TEST(StatsTable, FixedWidthPadsButNeverTruncates) {
  stats::Table t({{"", 6, /*left=*/true, ""}, {"", 4, /*left=*/false, " "}});
  t.add_row({"ab", "1"});
  t.add_row({"longer-than-six", "12345"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(),
            "ab        1\n"
            "longer-than-six 12345\n");
}

TEST(StatsTable, FinalLeftCellHasNoTrailingPadding) {
  stats::Table t({{"", 8, /*left=*/true, ""}, {"", 0, /*left=*/true, " "}});
  t.add_row({"k", "v"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(), "k        v\n");
}

TEST(StatsTable, CsvIgnoresAlignment) {
  stats::Table t = stats::Table::figure({"a", "b"});
  t.add_row({"x", "1"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,1\n");
}

} // namespace
