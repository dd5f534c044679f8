// Link-contention network model and consistency-model options.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace {

using namespace ccsim;
using harness::Machine;
using harness::MachineConfig;
using net::Message;
using net::MsgType;
using proto::Protocol;

struct Recorder final : net::MessageSink {
  sim::EventQueue* q = nullptr;
  std::vector<Cycle> at;
  void deliver(const Message&) override { at.push_back(q->now()); }
};

Message mk(NodeId s, NodeId d) {
  Message m;
  m.src = s;
  m.dst = d;
  m.type = MsgType::GetS;
  m.addr = mem::kSharedBase;
  return m;
}

TEST(LinkContention, UncontendedLatencyMatchesEndpointModel) {
  for (bool link : {false, true}) {
    sim::EventQueue q;
    net::Network::Params p;
    p.link_contention = link;
    net::Network net(q, net::MeshTopology(8), p, nullptr);
    std::vector<Recorder> sinks(8);
    for (NodeId i = 0; i < 8; ++i) {
      sinks[i].q = &q;
      net.attach(i, sinks[i]);
    }
    net.send(mk(0, 3));  // 3 hops, no competing traffic
    q.run();
    ASSERT_EQ(sinks[3].at.size(), 1u);
    EXPECT_EQ(sinks[3].at[0], 3 * 2 + 8u) << "link=" << link;
  }
}

TEST(LinkContention, SharedLinkSerializesCrossTraffic) {
  // 4x2 mesh: 0->2 and 1->3 both traverse link 1->2 (dimension-ordered,
  // X first). Under the endpoint model they do not interact; with link
  // contention the second stream waits for the channel.
  const auto second_arrival = [&](bool link) {
    sim::EventQueue q;
    net::Network::Params p;
    p.link_contention = link;
    net::Network net(q, net::MeshTopology(8), p, nullptr);
    std::vector<Recorder> sinks(8);
    for (NodeId i = 0; i < 8; ++i) {
      sinks[i].q = &q;
      net.attach(i, sinks[i]);
    }
    net.send(mk(0, 2));
    net.send(mk(1, 3));
    q.run();
    return sinks[3].at.at(0);
  };
  EXPECT_GT(second_arrival(true), second_arrival(false));
}

TEST(LinkContention, DisjointRoutesDoNotInteract) {
  sim::EventQueue q;
  net::Network::Params p;
  p.link_contention = true;
  net::Network net(q, net::MeshTopology(8), p, nullptr);
  std::vector<Recorder> sinks(8);
  for (NodeId i = 0; i < 8; ++i) {
    sinks[i].q = &q;
    net.attach(i, sinks[i]);
  }
  net.send(mk(0, 1));
  net.send(mk(4, 5));  // other row: disjoint links
  q.run();
  EXPECT_EQ(sinks[1].at.at(0), 10u);
  EXPECT_EQ(sinks[5].at.at(0), 10u);
}

TEST(LinkContention, NextHopFollowsDimensionOrder) {
  net::MeshTopology t(8);  // 4x2
  EXPECT_EQ(t.next_hop(0, 3), 1u);  // X first
  EXPECT_EQ(t.next_hop(1, 3), 2u);
  EXPECT_EQ(t.next_hop(3, 7), 7u);  // then Y
  EXPECT_EQ(t.next_hop(0, 7), 1u);
  EXPECT_EQ(t.next_hop(7, 0), 6u);  // reverse direction
}

TEST(LinkContention, EveryNodeCountRoutesThroughItsMeshPositions) {
  // MeshTopology rounds P up to an X x Y mesh, so X-first routes out of a
  // partly filled last row cross switch positions that hold no node (3
  // nodes on a 2x2 mesh: 2 -> 1 passes position 3). One message per
  // ordered pair, all injected at cycle 0, must arrive exactly when a
  // reference model with one busy-until time per directed link says.
  for (unsigned n = 1; n <= mem::kMaxNodes; ++n) {
    sim::EventQueue q;
    net::Network::Params p;
    p.link_contention = true;
    const net::MeshTopology topo(n);
    net::Network net(q, topo, p, nullptr);
    std::vector<Recorder> sinks(n);
    for (NodeId i = 0; i < n; ++i) {
      sinks[i].q = &q;
      net.attach(i, sinks[i]);
    }
    const Cycle flits = (mk(0, 0).wire_bytes() + p.flit_bytes - 1) / p.flit_bytes;
    std::map<std::pair<NodeId, NodeId>, Cycle> link_free;
    std::vector<Cycle> inject_free(n, 0), eject_free(n, 0);
    std::vector<std::vector<Cycle>> want(n);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        if (s == d) continue;
        net.send(mk(s, d));
        Cycle head = inject_free[s];
        inject_free[s] += flits;
        for (NodeId at = s; at != d;) {
          const NodeId next = topo.next_hop(at, d);
          Cycle& busy = link_free[{at, next}];
          head = std::max(head + p.switch_delay, busy);
          busy = head + flits;
          at = next;
        }
        eject_free[d] = std::max(head, eject_free[d]) + flits;
        want[d].push_back(eject_free[d]);
      }
    }
    q.run();
    for (NodeId d = 0; d < n; ++d)
      ASSERT_EQ(sinks[d].at, want[d]) << n << " nodes, deliveries to node " << d;
  }
}

TEST(LinkContention, PartlyFilledMeshesRunToCompletion) {
  // Node counts whose last mesh row is partly filled (2x2 holding 3, 4x2
  // holding 5-7) under a contended lock.
  for (unsigned n : {3u, 5u, 6u, 7u}) {
    MachineConfig cfg;
    cfg.protocol = Protocol::WI;
    cfg.nprocs = n;
    cfg.net.link_contention = true;
    Machine m(cfg);
    sync::TicketLock lock(m, n - 1);  // replies leave the partly filled row
    const Addr ctr = m.alloc().allocate_on(n - 1, 8);
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      for (int i = 0; i < 10; ++i) {
        co_await lock.acquire(c);
        const std::uint64_t v = co_await c.load(ctr);
        co_await c.store(ctr, v + 1);
        co_await lock.release(c);
      }
    });
    EXPECT_EQ(m.peek(ctr), 10u * n) << n << " nodes";
  }
}

TEST(LinkContention, FullWorkloadStillCorrect) {
  MachineConfig cfg;
  cfg.protocol = Protocol::PU;
  cfg.nprocs = 8;
  cfg.net.link_contention = true;
  Machine m(cfg);
  sync::TicketLock lock(m);
  const Addr ctr = m.alloc().allocate_on(0, 8);
  m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 15; ++i) {
      co_await lock.acquire(c);
      const std::uint64_t v = co_await c.load(ctr);
      co_await c.store(ctr, v + 1);
      co_await lock.release(c);
    }
  });
  EXPECT_EQ(m.peek(ctr), 120u);
}

TEST(LinkContention, CongestionSlowsTheHotWorkload) {
  const auto cycles = [&](bool link) {
    MachineConfig cfg;
    cfg.protocol = Protocol::PU;
    cfg.nprocs = 32;
    cfg.net.link_contention = link;
    const auto r = harness::run_barrier_experiment(
        cfg, harness::BarrierKind::Central, {.episodes = 30});
    return r.cycles;
  };
  EXPECT_GT(cycles(true), cycles(false))
      << "the central barrier's update storm must feel channel contention";
}

TEST(Consistency, SequentialStoresStallAndStayCorrect) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    Cycle rc_t = 0, sc_t = 0;
    for (auto model : {proto::Consistency::Release, proto::Consistency::Sequential}) {
      MachineConfig cfg;
      cfg.protocol = p;
      cfg.nprocs = 4;
      cfg.consistency = model;
      Machine m(cfg);
      sync::TicketLock lock(m);
      const Addr ctr = m.alloc().allocate_on(0, 8);
      const Cycle t = m.run_all([&](cpu::Cpu& c) -> sim::Task {
        for (int i = 0; i < 10; ++i) {
          co_await lock.acquire(c);
          const std::uint64_t v = co_await c.load(ctr);
          co_await c.store(ctr, v + 1);
          co_await lock.release(c);
        }
      });
      EXPECT_EQ(m.peek(ctr), 40u) << proto::to_string(p);
      (model == proto::Consistency::Release ? rc_t : sc_t) = t;
    }
    EXPECT_GT(sc_t, rc_t) << "SC must cost cycles under " << proto::to_string(p);
  }
}

TEST(Consistency, ScStoreIsGloballyPerformedAtCompletion) {
  MachineConfig cfg;
  cfg.protocol = Protocol::PU;
  cfg.nprocs = 2;
  cfg.consistency = proto::Consistency::Sequential;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(1, 8);
  m.run({[&](cpu::Cpu& c) -> sim::Task {
    co_await c.store(a, 7);
    // No fence: under SC the store itself only completes when performed.
    EXPECT_EQ(m.peek(a), 7u);
  }});
}

} // namespace
