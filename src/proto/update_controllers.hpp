// Update-based protocols (paper section 3.1).
//
// PU (pure update): writes write through the cache to the home node; the
// home multicasts updates to the other sharers and tells the writer how
// many acknowledgements to expect; sharers ack the writer directly; the
// writer stalls for acks only at release fences. Writes ALLOCATE: a write
// miss first fetches the block, so writers keep caching what they write --
// this is what makes MCS-lock writers accumulate copies of other
// processors' qnodes and receive an update for each modification of them
// (paper section 4.1), and what the update-conscious flushes undo. PU adds the private-block
// optimization: when the home sees an update for a block cached only by
// the writer, the grant tells the writer to retain future updates locally
// (the block enters PrivateDirty and behaves like an owned dirty copy until
// the home recalls it).
//
// CU (competitive update): same machinery, no private mode; each cache
// keeps a per-block counter of updates received since the last local
// reference and self-invalidates at the threshold (4), sending the home a
// Prune so no further updates are sent.
//
// Atomic instructions execute at the home memory: the home performs the
// read-modify-write, multicasts the new value to sharers, and returns the
// old value to the requester.
#pragma once

#include "proto/cache_base.hpp"

namespace ccsim::proto {

class UpdateCacheController final : public BaseCacheController {
public:
  UpdateCacheController(NodeId id, ProtocolContext& ctx, std::size_t cache_bytes,
                        unsigned drop_threshold)
      : BaseCacheController(id, ctx, cache_bytes), drop_threshold_(drop_threshold) {}

  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done) override;
  void on_message(const net::Message& msg) override;

protected:
  void drain_head() override;
  void on_cache_hit(mem::CacheLine& l, Addr a) override { (void)a; l.cu_counter = 0; }
  void evict(mem::CacheLine& line) override;
  [[nodiscard]] std::size_t mshr_count() const override {
    return txns_.size() + (atomic_.active ? 1 : 0);
  }

private:
  struct PendingAtomic {
    net::AtomicOp op{};
    Addr addr = 0;
    std::uint64_t v1 = 0, v2 = 0;
    LoadCallback done;
    bool active = false;
    /// The reply may install the block -- unless our copy was dropped,
    /// evicted or flushed while the request was in flight (a Prune or
    /// ReplHint sent after the AtomicReq has already revoked the
    /// sharer-ship the reply's fill would claim).
    bool fill_ok = true;
  };

  void apply_update(const net::Message& msg);
  /// Our copy of `b` is gone: an atomic in flight for it must not fill.
  void lost_copy(mem::BlockAddr b) {
    if (atomic_.active && mem::block_of(atomic_.addr) == b) atomic_.fill_ok = false;
  }

  unsigned drop_threshold_;  ///< 0 disables competitive drops (PU)
  PendingAtomic atomic_;
};

class UpdateHomeController final : public HomeController {
public:
  UpdateHomeController(NodeId id, ProtocolContext& ctx, bool enable_private)
      : HomeController(id, ctx), enable_private_(enable_private) {}

  void on_message(const net::Message& msg) override;

protected:
  void serve(const net::Message& req) override;

private:
  void serve_gets(const net::Message& msg);
  void serve_update(const net::Message& msg);
  void serve_atomic(const net::Message& msg);
  /// A request found its block Private: wait for the owner's writeback if
  /// the owner sent it, else recall the block from the owner.
  void hold_private(const mem::DirEntry& e, const net::Message& req);
  /// Send `msg.src` an UpdateGrant for `count` acks (and private mode).
  void grant(const net::Message& msg, unsigned count, bool make_private);
  /// Update every sharer but `writer`; returns how many updates went.
  unsigned multicast_update(const mem::DirEntry& e, Addr word_addr, std::uint64_t value,
                            std::size_t size, NodeId writer);

  bool enable_private_;
};

} // namespace ccsim::proto
