// Write-invalidate protocol (DASH-like full-map directory, release
// consistent), paper section 3.1.
//
// Cache side: MSI states. Read misses send GetS; writes drain from the
// write buffer and send GetX (Invalid) or Upgrade (Shared); the processor
// stalls for invalidation acknowledgements only at release fences. Atomic
// instructions obtain an exclusive copy and execute in the cache controller.
//
// Home side: one transaction per block at a time (the block is held and
// later requests park, see HomeController); dirty blocks are
// forwarded DASH-style (home -> owner -> requester, with a SharedWB /
// TransferAck closing message back to the home). Races between forwards and
// evictions resolve with FwdNack + writeback replay.
#pragma once

#include "proto/cache_base.hpp"

namespace ccsim::proto {

class WiCacheController final : public BaseCacheController {
public:
  using BaseCacheController::BaseCacheController;

  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done) override;
  void on_message(const net::Message& msg) override;

protected:
  void drain_head() override;

private:
  /// Get an exclusive copy of `a`'s block for a store or atomic: run
  /// `retry` once its transaction completes, opening one (Upgrade from
  /// Shared, GetX otherwise) if none is outstanding.
  void request_exclusive(Addr a, const mem::CacheLine* line, std::function<void()> retry);
  void perform_store(const mem::WriteBufferEntry& e);
  void do_atomic_local(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                       LoadCallback done);
  void cpu_atomic_resume(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                         LoadCallback done);
};

class WiHomeController final : public HomeController {
public:
  using HomeController::HomeController;

  void on_message(const net::Message& msg) override;

protected:
  void serve(const net::Message& req) override;

private:
  void serve_gets(mem::BlockAddr b, const net::Message& req);
  void serve_getx(mem::BlockAddr b, const net::Message& req);
  /// Invalidate every sharer but the requester; acks go to the requester.
  unsigned invalidate_sharers(const mem::DirEntry& e, const net::Message& req);
};

} // namespace ccsim::proto
