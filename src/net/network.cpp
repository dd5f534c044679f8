#include "net/network.hpp"

#include "obs/host_perf.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>

namespace ccsim::net {
namespace {

obs::TraceEvent net_event(obs::EventKind kind, Cycle at, Cycle dur, NodeId node,
                          NodeId peer, const Message& msg, std::uint64_t flow) {
  obs::TraceEvent e;
  e.cycle = at;
  e.dur = dur;
  e.cat = obs::TraceCat::Net;
  e.kind = kind;
  e.node = node;
  e.peer = peer;
  e.msg = msg.type;
  e.addr = msg.addr;
  e.payload = msg.payload;
  e.flow = flow;
  return e;
}

} // namespace
} // namespace ccsim::net

namespace ccsim::net {

Network::Network(sim::EventQueue& q, MeshTopology topo, Params params,
                 stats::NetCounters* counters)
    : q_(q),
      topo_(topo),
      params_(params),
      counters_(counters),
      sinks_(topo.count(), nullptr),
      inject_free_(topo.count(), 0),
      eject_free_(topo.count(), 0),
      link_free_(params.link_contention
                     ? static_cast<std::size_t>(topo.positions()) * topo.positions()
                     : 0,
                 0),
      local_last_(topo.count(), 0),
      inflight_(topo.count(), 0),
      jitter_rng_(params.jitter_seed) {}

void Network::attach(NodeId n, MessageSink& sink) {
  assert(n < sinks_.size());
  sinks_[n] = &sink;
}

void Network::send(const Message& msg) {
  // Host telemetry: routing + contention arithmetic is network work.
  obs::ScopedHostCat host_scope(host_, obs::HostCat::Network);
  assert(msg.src < sinks_.size() && msg.dst < sinks_.size());
  assert(sinks_[msg.dst] && "destination node has no sink attached");

  if (counters_) ++counters_->by_type[static_cast<std::size_t>(msg.type)];
  ++inflight_[msg.dst];
  if (msg.src == msg.dst) {
    if (counters_) ++counters_->local;
    Cycle arrive = q_.now() + kLocalLatency;
    if (params_.jitter_max != 0) {
      // Clamp against the previous local delivery: equal timestamps keep
      // scheduling order (seq tie-break), so same-node FIFO is preserved.
      arrive = std::max(arrive + jitter(), local_last_[msg.dst]);
      local_last_[msg.dst] = arrive;
    }
    std::uint64_t flow = 0;
    if (trace_) {
      flow = trace_->next_flow_id();
      trace_->event(net_event(obs::EventKind::MsgSend, q_.now(), 0, msg.src,
                              msg.dst, msg, flow));
    }
    const std::uint32_t index = parked_.park(msg);
    q_.schedule_at(arrive, [this, index, arrive, flow] {
      deliver(index, arrive, 0, flow);
    });
    return;
  }

  const std::size_t bytes = msg.wire_bytes();
  const Cycle flits =
      static_cast<Cycle>((bytes + kFlitBytes - 1) / kFlitBytes);
  const unsigned hops = topo_.hops(msg.src, msg.dst);

  // Source port: the tail flit leaves `flits` cycles after injection starts.
  // Jitter delays the injection claim; because the claim still advances
  // inject_free_ monotonically, per-(src, dst) FIFO order is unaffected.
  const Cycle start = std::max(q_.now() + jitter(), inject_free_[msg.src]);
  inject_free_[msg.src] = start + flits;

  // Flight: each switch delays the header by switch_delay cycles; with
  // link contention on, the header also waits for each channel of the
  // dimension-ordered route, and the flit stream then occupies it.
  Cycle head_arrival;
  if (params_.link_contention) {
    Cycle head = start;
    NodeId at = msg.src;
    while (at != msg.dst) {
      const NodeId next = topo_.next_hop(at, msg.dst);
      Cycle& busy = link_free_[static_cast<std::size_t>(at) * topo_.positions() + next];
      head = std::max(head + kSwitchDelay, busy);
      busy = head + flits;
      at = next;
    }
    head_arrival = head;
  } else {
    head_arrival = start + kSwitchDelay * hops;
  }

  // Destination port: ejection serializes; the message is delivered when its
  // tail flit has been ejected.
  const Cycle eject_start = std::max(head_arrival, eject_free_[msg.dst]);
  const Cycle delivered = eject_start + flits;
  eject_free_[msg.dst] = delivered;

  if (counters_) {
    ++counters_->messages;
    counters_->flits += flits;
    counters_->hops += hops;
  }

  std::uint64_t flow = 0;
  if (trace_) {
    flow = trace_->next_flow_id();
    trace_->event(net_event(obs::EventKind::MsgSend, start, flits, msg.src,
                            msg.dst, msg, flow));
  }
  const std::uint32_t index = parked_.park(msg);
  q_.schedule_at(delivered, [this, index, eject_start, flits, flow] {
    deliver(index, eject_start, flits, flow);
  });
}

void Network::deliver(std::uint32_t index, Cycle recv_at, Cycle dur,
                      std::uint64_t flow) {
  // Copy out and free first: the sink may send, which can grow the slab.
  const Message msg = parked_.take(index);
  --inflight_[msg.dst];
  if (trace_)
    trace_->event(net_event(obs::EventKind::MsgRecv, recv_at, dur, msg.dst,
                            msg.src, msg, flow));
  sinks_[msg.dst]->deliver(msg);
}

} // namespace ccsim::net
