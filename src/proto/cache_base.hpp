// Machinery shared by the WI and update-based cache controllers: the
// cache and write buffer, private (non-coherent) memory, write-buffer
// acceptance and drain scheduling, fence bookkeeping, the load path, the
// MSHR table of outstanding block transactions, fills and evictions, and
// flushes.
#pragma once

#include "proto/protocol.hpp"

#include <cassert>
#include <unordered_map>
#include <vector>

namespace ccsim::proto {

class BaseCacheController : public CacheController {
public:
  BaseCacheController(NodeId id, ProtocolContext& ctx, std::size_t cache_bytes,
                      std::size_t wb_entries)
      : CacheController(id, ctx), cache_(cache_bytes), wb_(wb_entries) {}

  void cpu_load(Addr a, std::size_t size, LoadCallback done) override;
  void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done) override;
  void cpu_fence(DoneCallback done) override;
  void cpu_flush(Addr a, DoneCallback done) override;

  [[nodiscard]] mem::DataCache& cache() noexcept override { return cache_; }
  [[nodiscard]] WriteBufferUse write_buffer_use() const override {
    return {wb_.peak(), wb_.pushes()};
  }
  [[nodiscard]] CacheDebug debug_state() const override {
    return {wb_.size(), mshr_count(), pending_acks_, outstanding_};
  }

protected:
  struct LoadWaiter {
    Addr addr;
    std::size_t size;
    LoadCallback done;
  };
  /// One outstanding block transaction (an MSHR): the loads its fill
  /// satisfies and the work it stalls (write-buffer drains, atomics,
  /// fills that would evict its line), replayed when it completes.
  struct Txn {
    std::vector<LoadWaiter> loads;
    std::vector<std::function<void()>> retries;
    bool inval_on_fill = false;  ///< an Inval overtook the fill (WI)
    Addr inval_trigger = 0;
  };

  /// Outstanding block transactions, for watchdog diagnostics.
  [[nodiscard]] virtual std::size_t mshr_count() const { return txns_.size(); }

  // --- hooks the concrete protocols implement ------------------------

  /// Process the write at the head of the write buffer. Must eventually
  /// call entry_done().
  virtual void drain_head() = 0;

  /// A load or store hit line `l`; protocol-specific reaction (e.g. the
  /// competitive-update counter resets on local references).
  virtual void on_cache_hit(mem::CacheLine& l, Addr a) { (void)l, (void)a; }

  /// Drop `line` from the cache, writing it back if dirty.
  virtual void evict(mem::CacheLine& line);

  // --- services for subclasses ----------------------------------------

  void send(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }

  /// A message of `type` about `a`, addressed to the home of its block.
  [[nodiscard]] net::Message to_home(net::MsgType type, Addr a) const {
    net::Message m;
    m.type = type;
    m.dst = ctx_.alloc.home_of(mem::block_of(a));
    m.addr = a;
    return m;
  }

  /// The full word of our cached copy containing `a` (observer hooks).
  [[nodiscard]] std::uint64_t word_at(Addr a) const {
    return cache_.read(mem::word_base(a), mem::kWordSize);
  }

  /// Complete a load one hit-latency from now, reading the line at
  /// completion time. A change (update/invalidation) landing between now
  /// and then has already fired its change notification, so delivering a
  /// value captured NOW would let a spinner sleep through its wakeup.
  /// If the line is gone by then, the load retries from scratch.
  void complete_load_later(Addr a, std::size_t size, LoadCallback done) {
    ctx_.q.schedule(kHitCycles, [this, a, size, done = std::move(done)]() mutable {
      if (cache_.find(mem::block_of(a))) {
        for (obs::Observer* o : ctx_.observers) o->on_read(id_, a, word_at(a));
        done(cache_.read(a, size));
      } else {
        --ctx_.counters.mem.shared_reads;  // recounted by the retry
        cpu_load(a, size, std::move(done));
      }
    });
  }

  /// Join b's outstanding transaction, or open one. Returns true if it
  /// opened one: the caller then sends the request.
  bool open_txn(mem::BlockAddr b, LoadWaiter w) {
    auto [it, opened] = txns_.try_emplace(b);
    it->second.loads.push_back(std::move(w));
    return opened;
  }
  bool open_txn(mem::BlockAddr b, std::function<void()> retry) {
    auto [it, opened] = txns_.try_emplace(b);
    it->second.retries.push_back(std::move(retry));
    return opened;
  }

  /// Fetch a shared copy of `a`'s block (load miss or write-allocate):
  /// join its transaction, or count the miss and send GetS. A load that
  /// joins an outstanding fetch is not a new miss.
  template <class Waiter>
  void fetch_shared(Addr a, Waiter w) {
    if (!open_txn(mem::block_of(a), std::move(w))) return;
    ctx_.misses.classify_miss(id_, a);
    send(to_home(net::MsgType::GetS, a));
  }

  /// b's transaction is done: its loads complete one hit-latency from now
  /// (reading the line then), its retries run next cycle, and an
  /// invalidation that overtook the fill takes the line.
  void complete_txn(mem::BlockAddr b);

  /// A fill may not evict a line with its own transaction outstanding (a
  /// grant would arrive for a line we no longer hold): park `msg` on the
  /// victim's transaction and return true.
  bool fill_blocked(const net::Message& msg);

  /// Invalidate `l`; `trigger` is the written word that caused it.
  void invalidate_line(mem::CacheLine& l, Addr trigger);

  /// Install `data` as block `b` in `state`, evicting the set's victim.
  void fill(mem::BlockAddr b, const std::array<std::byte, mem::kBlockSize>& data,
            mem::LineState state);

  /// The head write-buffer entry retired: pop it, admit a stalled store,
  /// and keep draining.
  void entry_done();

  /// Start the drain loop if it is not already running.
  void kick_drain();

  /// Re-evaluate pending fences; call after any counter decreases.
  void check_fences();

  [[nodiscard]] bool fence_clear() const noexcept {
    return wb_.empty() && pending_acks_ == 0 && outstanding_ == 0;
  }

  std::uint64_t read_private(Addr a) const {
    auto it = private_mem_.find(a);
    return it == private_mem_.end() ? 0 : it->second;
  }

  /// Latency of a cache hit / of accepting a store (1 cycle, section 3.1).
  static constexpr Cycle kHitCycles = 1;
  /// Extra cycles for the read-modify-write of a cache-side atomic.
  static constexpr Cycle kAtomicCycles = 2;

  /// Blocks with a Writeback of ours still unacknowledged by the home.
  /// Used to disambiguate forward races: a forward arriving for a block we
  /// just wrote back must be FwdNack'ed (the home replays off the
  /// writeback), never deferred.
  void note_writeback_sent(mem::BlockAddr b) { ++wb_pending_[b]; }
  void note_writeback_acked(mem::BlockAddr b) {
    auto it = wb_pending_.find(b);
    if (it != wb_pending_.end() && --it->second == 0) wb_pending_.erase(it);
  }
  [[nodiscard]] bool writeback_in_flight(mem::BlockAddr b) const {
    return wb_pending_.contains(b);
  }

  mem::DataCache cache_;
  mem::WriteBuffer wb_;
  std::unordered_map<Addr, std::uint64_t> private_mem_;
  std::unordered_map<mem::BlockAddr, int> wb_pending_;
  std::unordered_map<mem::BlockAddr, Txn> txns_;

  /// Coherence acknowledgements still owed to this node's earlier writes.
  /// May transiently go negative when an ack overtakes the message that
  /// announces it.
  std::int64_t pending_acks_ = 0;
  /// Transactions whose ack count has not been announced yet (WI exclusive
  /// requests in flight, update grants in flight).
  int outstanding_ = 0;

private:
  struct StalledStore {
    mem::WriteBufferEntry entry;
    DoneCallback done;
    Cycle since;
  };

  bool draining_ = false;
  std::vector<DoneCallback> fence_waiters_;
  std::vector<StalledStore> store_stalls_;
};

} // namespace ccsim::proto
