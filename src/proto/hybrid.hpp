// Hybrid machine: per-region coherence protocols on one machine.
//
// The paper's motivation is machines with programmable protocol processors
// (FLASH, Typhoon) that can run "multiple coherence protocols within the
// same application"; its conclusion is that constructs should then pick
// both implementation AND protocol. The hybrid controllers make that
// executable: every node runs a WI engine and the two update engines side
// by side, and each shared block is served by the engine its domain tag
// selects (Machine::bind_protocol / SharedAllocator::set_domain).
//
// Blocks of different domains are disjoint state: each engine keeps its
// own cache array, write buffer, directory slice and backing store
// (a "protocol-split cache"; DESIGN.md section 5b records the capacity
// simplification). Fences synchronize across all engines, preserving
// release semantics for programs that mix domains.
#pragma once

#include "proto/protocol.hpp"

#include <array>
#include <memory>

namespace ccsim::proto {

/// Maps a block's allocator domain id to the protocol serving it.
/// Domain 0 = the machine's hybrid_default; domains 1..3 = WI/PU/CU.
[[nodiscard]] Protocol domain_protocol(std::uint8_t domain, Protocol fallback);

/// Domain id for binding a region to a protocol (see above).
[[nodiscard]] std::uint8_t domain_of_protocol(Protocol p);

class HybridCacheController final : public CacheController {
public:
  HybridCacheController(NodeId id, ProtocolContext& ctx, std::size_t cache_bytes,
                        std::size_t wb_entries);

  void cpu_load(Addr a, std::size_t size, LoadCallback done) override;
  void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done) override;
  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done) override;
  void cpu_fence(DoneCallback done) override;
  void cpu_flush(Addr a, DoneCallback done) override;
  void on_message(const net::Message& msg) override;

  [[nodiscard]] mem::DataCache& cache() noexcept override;
  [[nodiscard]] mem::DataCache& cache_for(mem::BlockAddr b) noexcept override;
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
  [[nodiscard]] CacheController& engine_for(Addr a);

  std::array<std::unique_ptr<CacheController>, 3> engines_;  ///< WI, PU, CU
};

class HybridHomeController final : public HomeController {
public:
  HybridHomeController(NodeId id, ProtocolContext& ctx, mem::MemTimings timings);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] mem::MemoryModule& memory_for(mem::BlockAddr b) noexcept override;
  [[nodiscard]] mem::Directory& directory_for(mem::BlockAddr b) noexcept override;

protected:
  /// Never called: requests go to the engines, which hold their own blocks.
  void serve(const net::Message&) override {}

private:
  [[nodiscard]] HomeController& engine_for(Addr a);

  std::array<std::unique_ptr<HomeController>, 3> engines_;  ///< WI, PU, CU
};

} // namespace ccsim::proto
