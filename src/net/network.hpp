// Network model: wormhole mesh with contention at the endpoints.
//
// Per the paper (section 3.1): the network runs at the processor clock, the
// datapath is 16 bits wide (one flit = 2 bytes), each switch adds 2 cycles
// to the header, and contention is modeled only at the source and
// destination of messages. Between one (source, destination) pair delivery
// is FIFO: injection serializes at the source port and ejection at the
// destination port, so reordering is impossible -- the update protocols'
// same-word ordering relies on this.
#pragma once

#include "net/message.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "stats/counters.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccsim::obs {
class HostPerfCollector;
class TraceLog;
}

namespace ccsim::net {

/// Per-hop header latency: each switch adds 2 cycles (section 3.1).
inline constexpr Cycle kSwitchDelay = 2;
/// One flit per cycle over the 16-bit datapath (section 3.1).
inline constexpr std::size_t kFlitBytes = 2;
/// Node-internal delivery, which bypasses the network. Section 3.1 gives
/// no figure; ccsim charges one cycle.
inline constexpr Cycle kLocalLatency = 1;

/// Receiver of delivered messages; each node registers one.
class MessageSink {
public:
  virtual ~MessageSink() = default;
  virtual void deliver(const Message& msg) = 0;
};

class Network {
public:
  struct Params {
    /// Model wormhole channel contention on every link of the
    /// dimension-ordered route, not just at the endpoints. The paper's
    /// machine models source/destination contention only (section 3.1);
    /// turning this on shows how much its conclusions depend on that
    /// simplification (see bench/abl_network_contention).
    bool link_contention = false;
    /// Deterministic delivery perturbation (tools/ccstress): every message
    /// is delayed by a pseudorandom extra 0..jitter_max cycles before it
    /// claims its injection port. Jitter shifts timing only -- per-(source,
    /// destination) FIFO order is preserved, because port claims stay
    /// monotonic in send order (local messages clamp against the previous
    /// local delivery instead) -- and the draw sequence is a pure function
    /// of the deterministic send order, so equal seeds give byte-identical
    /// runs. 0 disables jitter and leaves the send path untouched.
    Cycle jitter_max = 0;
    std::uint64_t jitter_seed = 0;
  };

  Network(sim::EventQueue& q, MeshTopology topo, Params params,
          stats::NetCounters* counters = nullptr);

  /// Register the receiver for messages addressed to node `n`.
  void attach(NodeId n, MessageSink& sink);

  /// Attach a trace log; every injected message then emits a MsgSend event
  /// at its source and a MsgRecv event at its destination, joined by a flow
  /// id so sinks can draw message-lifetime arrows.
  void set_trace(obs::TraceLog* trace) noexcept { trace_ = trace; }

  /// Attach the host-performance collector (obs/host_perf.hpp); send()
  /// then attributes its routing/contention host time to the network
  /// category. Pure host-side observer -- simulated timing is unchanged.
  void set_host(obs::HostPerfCollector* host) noexcept { host_ = host; }

  /// Inject a message. Delivery is scheduled on the event queue with full
  /// endpoint contention accounting.
  void send(const Message& msg);

  [[nodiscard]] const MeshTopology& topology() const noexcept { return topo_; }

  /// Messages sent to node `n` and not yet delivered (watchdog diagnostics).
  [[nodiscard]] std::uint64_t in_flight(NodeId n) const { return inflight_[n]; }

private:
  /// Deliver parked message `index` to its sink; a traced run records the
  /// MsgRecv event at `recv_at` lasting `dur` with flow id `flow`.
  void deliver(std::uint32_t index, Cycle recv_at, Cycle dur, std::uint64_t flow);

  [[nodiscard]] Cycle jitter() {
    return params_.jitter_max == 0 ? 0 : jitter_rng_.below(params_.jitter_max + 1);
  }

  sim::EventQueue& q_;
  MeshTopology topo_;
  Params params_;
  stats::NetCounters* counters_;
  obs::TraceLog* trace_ = nullptr;
  obs::HostPerfCollector* host_ = nullptr;
  std::vector<MessageSink*> sinks_;
  std::vector<Cycle> inject_free_;
  std::vector<Cycle> eject_free_;
  /// link_contention: busy-until per directed link between switch
  /// positions, indexed [from * positions + to-of-adjacent-hop].
  std::vector<Cycle> link_free_;
  /// Jittered local (src == dst) messages clamp to the previous local
  /// delivery at the node so same-pair FIFO survives the perturbation.
  std::vector<Cycle> local_last_;
  std::vector<std::uint64_t> inflight_;  ///< undelivered messages per dst
  MessageSlab parked_;                   ///< messages awaiting delivery
  sim::Rng jitter_rng_;
};

} // namespace ccsim::net
