// Coherence-protocol framework: the interfaces the CPU model and the node
// wiring program against, plus the factory selecting WI / PU / CU.
#pragma once

#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/memory_module.hpp"
#include "mem/shared_alloc.hpp"
#include "mem/write_buffer.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "stats/counters.hpp"
#include "stats/miss_classifier.hpp"
#include "stats/update_classifier.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ccsim::obs {
class HostPerfCollector;
}

namespace ccsim::proto {

/// Which coherence protocol a machine runs (paper, sections 1 and 3.1).
enum class Protocol : std::uint8_t {
  WI,  ///< write invalidate (DASH-like, release consistent)
  PU,  ///< pure update (write-through + update multicast)
  CU,  ///< competitive update (PU + per-block counters, threshold 4)
  /// Per-region protocol binding on one machine (the paper's
  /// programmable-protocol-processor scenario, FLASH/Typhoon style):
  /// shared regions are tagged WI/PU/CU via Machine::bind_protocol and
  /// each node runs all three engines side by side.
  Hybrid,
};

[[nodiscard]] constexpr std::string_view to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::WI: return "WI";
    case Protocol::PU: return "PU";
    case Protocol::CU: return "CU";
    case Protocol::Hybrid: return "Hybrid";
  }
  return "?";
}

/// Memory consistency model. The paper's machine is release consistent
/// (writes stall only at releases); sequential consistency stalls every
/// shared store until it is globally performed -- provided as an ablation
/// of how much the constructs' performance depends on RC.
enum class Consistency : std::uint8_t { Release, Sequential };

/// Services shared by every controller of one simulated machine.
struct ProtocolContext {
  sim::EventQueue& q;
  net::Network& net;
  mem::SharedAllocator& alloc;
  stats::Counters& counters;
  stats::MissClassifier& misses;
  stats::UpdateClassifier& updates;
  unsigned nprocs;
  unsigned cu_threshold = 4;  ///< competitive-update invalidation threshold
  obs::TraceLog* trace = nullptr;  ///< optional structured event trace
  /// Attached transition observers (obs/observer.hpp). Engines report each
  /// transition once, to all of them; observers never schedule events, so
  /// timing is identical whichever are attached.
  obs::Observers observers;
  /// Optional host-performance telemetry (obs/host_perf.hpp). Pure
  /// host-side observer: nodes attribute their message-handling host time
  /// to it; simulated results are identical with or without it.
  obs::HostPerfCollector* host = nullptr;
  Consistency consistency = Consistency::Release;
  /// Hybrid machines: protocol for blocks whose domain id is 0.
  Protocol hybrid_default = Protocol::WI;

  /// Trace a controller at `node` handling `msg`.
  void trace_recv(obs::TraceCat cat, NodeId node, const net::Message& msg) const {
    if (trace) trace->event(obs::recv_event(cat, q.now(), node, msg));
  }
};

/// Point-in-time occupancy of a cache controller's queues, reported in
/// deadlock/watchdog diagnostics (see Machine::run).
struct CacheDebug {
  std::size_t wb_entries = 0;   ///< write-buffer occupancy
  std::size_t mshr = 0;         ///< outstanding block transactions
  std::int64_t pending_acks = 0;///< coherence acks a fence would wait for
  int outstanding = 0;          ///< granted-but-unacknowledged operations
};

/// A node's write-buffer use over a run (Machine::profile).
struct WriteBufferUse {
  std::uint64_t peak = 0;    ///< deepest occupancy of any of the node's buffers
  std::uint64_t pushes = 0;  ///< stores accepted, summed over its buffers
};

/// Processor-side controller: cache + write buffer + protocol engine.
///
/// Completion callbacks fire when the operation completes from the
/// processor's point of view (loads: data available; stores: accepted by
/// the write buffer; atomics: old value returned; fences: all prior writes
/// globally performed).
class CacheController {
public:
  using LoadCallback = std::function<void(std::uint64_t)>;
  using DoneCallback = std::function<void()>;

  CacheController(NodeId id, ProtocolContext& ctx) : id_(id), ctx_(ctx) {}
  virtual ~CacheController() = default;

  virtual void cpu_load(Addr a, std::size_t size, LoadCallback done) = 0;
  virtual void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done) = 0;
  virtual void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                          LoadCallback done) = 0;
  /// Release fence: wait for the write buffer to drain and all coherence
  /// acknowledgements of prior writes to arrive.
  virtual void cpu_fence(DoneCallback done) = 0;
  /// User-level block flush (PowerPC-604 style): drop `block_of(a)` from
  /// this cache, writing it back if dirty.
  virtual void cpu_flush(Addr a, DoneCallback done) = 0;

  virtual void on_message(const net::Message& msg) = 0;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  /// The node's cache. A hybrid node has one per protocol engine and
  /// returns the one serving its default domain.
  [[nodiscard]] virtual mem::DataCache& cache() noexcept = 0;
  /// The cache that holds (or would hold) `b`.
  [[nodiscard]] virtual mem::DataCache& cache_for(mem::BlockAddr) noexcept {
    return cache();
  }
  [[nodiscard]] virtual WriteBufferUse write_buffer_use() const = 0;

  /// Queue occupancy snapshot for watchdog/deadlock diagnostics.
  [[nodiscard]] virtual CacheDebug debug_state() const = 0;

protected:
  NodeId id_;
  ProtocolContext& ctx_;
};

/// Home-side controller: directory + memory bank + protocol engine, and
/// the per-block serialization every engine shares: while a block is
/// held by a transaction that cannot finish yet (a WI forward or
/// exclusive grant, a PU recall, a wait for the owner's writeback), later
/// requests for it park and are served in arrival order once it is
/// released.
class HomeController {
public:
  HomeController(NodeId id, ProtocolContext& ctx, mem::MemTimings timings)
      : id_(id), ctx_(ctx), memory_(timings) {}
  virtual ~HomeController() = default;

  virtual void on_message(const net::Message& msg) = 0;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] mem::MemoryModule& memory() noexcept { return memory_; }
  [[nodiscard]] mem::Directory& directory() noexcept { return dir_; }
  /// Hybrid dispatch points (plain homes return their own members).
  [[nodiscard]] virtual mem::MemoryModule& memory_for(mem::BlockAddr) noexcept {
    return memory_;
  }
  [[nodiscard]] virtual mem::Directory& directory_for(mem::BlockAddr) noexcept {
    return dir_;
  }

protected:
  /// A held block.
  struct Hold {
    net::Message req;                  ///< the request holding the block
    std::vector<net::Message> parked;  ///< later requests, in arrival order
    bool waiting_wb = false;           ///< resume when the owner's Writeback lands
    bool wb_processed = false;         ///< a Writeback landed while held
  };

  /// Serve the request that starts a block transaction. It completes at
  /// once or calls hold().
  virtual void serve(const net::Message& req) = 0;

  /// A transaction request arrived: serve it, or park it if its block is
  /// held.
  void admit(const net::Message& req);
  /// `req` cannot complete yet: hold its block, which must not be held
  /// already, until replay() or close().
  Hold& hold(const net::Message& req);
  [[nodiscard]] Hold* held(mem::BlockAddr b) {
    auto it = holds_.find(b);
    return it == holds_.end() ? nullptr : &it->second;
  }
  /// Release `b` and serve the holding request again, then the parked
  /// ones in arrival order, until one holds the block again.
  void replay(mem::BlockAddr b) { release(b, true); }
  /// The holding request finished: release `b` and serve the parked ones.
  void close(mem::BlockAddr b);

  void send_from(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }
  /// Send `m` once the memory bank is done at `ready`. A reply carrying
  /// the block reads memory then: a write absorbed between dispatch and
  /// the bank completing must be in the data, since the requester is
  /// already in the sharer set.
  void reply_at(Cycle ready, net::Message m);
  /// Send `m` to every sharer in `e` but `skip`; returns how many went.
  /// Invalidations are reported to the observers as they go.
  unsigned multicast(const mem::DirEntry& e, net::Message m, NodeId skip);
  /// Write a Writeback's block to memory, acknowledge it, and resume a
  /// transaction held until it landed. The caller updates the directory.
  void absorb_writeback(const net::Message& wb);

  NodeId id_;
  ProtocolContext& ctx_;
  mem::MemoryModule memory_;
  mem::Directory dir_;

private:
  void release(mem::BlockAddr b, bool serve_holder);

  std::unordered_map<mem::BlockAddr, Hold> holds_;
};

/// The word an atomic leaves behind when it reads `old`; `wrote` is false
/// when it leaves `old` (a failed compare-and-swap).
[[nodiscard]] std::uint64_t apply_atomic(net::AtomicOp op, std::uint64_t old,
                                         std::uint64_t v1, std::uint64_t v2, bool& wrote);

/// True if `t` is addressed to the home (directory/memory) side of a node.
[[nodiscard]] bool is_home_bound(net::MsgType t) noexcept;

std::unique_ptr<CacheController> make_cache_controller(Protocol p, NodeId id,
                                                       ProtocolContext& ctx,
                                                       std::size_t cache_bytes,
                                                       std::size_t wb_entries);
std::unique_ptr<HomeController> make_home_controller(Protocol p, NodeId id,
                                                     ProtocolContext& ctx,
                                                     mem::MemTimings timings);

} // namespace ccsim::proto
