// Hybrid machine: per-region coherence protocols on one machine.
//
// The paper's motivation is machines with programmable protocol processors
// (FLASH, Typhoon) that can run "multiple coherence protocols within the
// same application"; its conclusion is that constructs should then pick
// both implementation AND protocol. The hybrid controllers make that
// executable: every node runs a WI engine and the two update engines side
// by side, and each shared block is served by the engine its domain tag
// selects. Machine::bind_protocol tags a block with its Protocol value
// (SharedAllocator::set_domain), so the tag indexes the engines directly;
// an unbound block keeps tag 0 and runs WI.
//
// Blocks of different domains are disjoint state: each engine keeps its
// own cache array, write buffer and memory bank (a "protocol-split cache";
// DESIGN.md section 5b records the capacity simplification), and a block's
// directory entry and memory sit in the machine's one mem::HomeTable,
// where only its domain's engine at its home touches them. Fences
// synchronize across all engines, preserving release semantics for
// programs that mix domains. The invariant checker audits all three
// caches of every node (CacheController::for_each_cache).
#pragma once

#include "proto/protocol.hpp"

#include <array>
#include <memory>

namespace ccsim::proto {

class HybridCacheController final : public CacheController {
public:
  HybridCacheController(NodeId id, ProtocolContext& ctx, std::size_t cache_bytes);

  void cpu_load(Addr a, std::size_t size, LoadCallback done) override;
  void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done) override;
  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done) override;
  void cpu_fence(DoneCallback done) override;
  void cpu_flush(Addr a, DoneCallback done) override;
  void on_message(const net::Message& msg) override;

  [[nodiscard]] mem::DataCache& cache() noexcept override;
  [[nodiscard]] mem::DataCache& cache_for(mem::BlockAddr b) noexcept override;
  void for_each_cache(const std::function<void(const mem::DataCache&)>& f) override;
  [[nodiscard]] WriteBufferUse write_buffer_use() const override;

  [[nodiscard]] CacheDebug debug_state() const override {
    CacheDebug d;
    for (const auto& e : engines_) {
      const CacheDebug ed = e->debug_state();
      d.wb_entries += ed.wb_entries;
      d.mshr += ed.mshr;
      d.pending_acks += ed.pending_acks;
      d.outstanding += ed.outstanding;
    }
    return d;
  }

private:
  [[nodiscard]] CacheController& engine_for(mem::BlockAddr b);

  std::array<std::unique_ptr<CacheController>, 3> engines_;  ///< WI, PU, CU
};

class HybridHomeController final : public HomeController {
public:
  HybridHomeController(NodeId id, ProtocolContext& ctx);

  void on_message(const net::Message& msg) override;

protected:
  /// Never called: requests go to the engines, which hold their own blocks.
  void serve(const net::Message&) override {}

private:
  [[nodiscard]] HomeController& engine_for(mem::BlockAddr b);

  std::array<std::unique_ptr<HomeController>, 3> engines_;  ///< WI, PU, CU
};

} // namespace ccsim::proto
