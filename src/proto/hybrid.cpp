#include "proto/hybrid.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <cassert>

namespace ccsim::proto {

Protocol domain_protocol(std::uint8_t domain, Protocol fallback) {
  switch (domain) {
    case 1: return Protocol::WI;
    case 2: return Protocol::PU;
    case 3: return Protocol::CU;
    default: return fallback;
  }
}

std::uint8_t domain_of_protocol(Protocol p) {
  switch (p) {
    case Protocol::WI: return 1;
    case Protocol::PU: return 2;
    case Protocol::CU: return 3;
    case Protocol::Hybrid: break;
  }
  CCSIM_CHECK(false, "cannot bind a region to the Hybrid pseudo-protocol");
  return 0;
}

namespace {
std::size_t engine_index(Protocol p) {
  switch (p) {
    case Protocol::WI: return 0;
    case Protocol::PU: return 1;
    case Protocol::CU: return 2;
    case Protocol::Hybrid: break;
  }
  CCSIM_CHECK(false, "Hybrid pseudo-protocol has no engine of its own");
  return 0;
}
} // namespace

// ---------------------------------------------------------------------
// cache side
// ---------------------------------------------------------------------

HybridCacheController::HybridCacheController(NodeId id, ProtocolContext& ctx,
                                             std::size_t cache_bytes,
                                             std::size_t wb_entries)
    : CacheController(id, ctx) {
  engines_[0] = make_cache_controller(Protocol::WI, id, ctx, cache_bytes, wb_entries);
  engines_[1] = make_cache_controller(Protocol::PU, id, ctx, cache_bytes, wb_entries);
  engines_[2] = make_cache_controller(Protocol::CU, id, ctx, cache_bytes, wb_entries);
}

CacheController& HybridCacheController::engine_for(Addr a) {
  const Protocol p = domain_protocol(ctx_.alloc.domain_of(mem::block_of(a)),
                                     ctx_.hybrid_default);
  return *engines_[engine_index(p)];
}

mem::DataCache& HybridCacheController::cache() noexcept {
  return engines_[engine_index(ctx_.hybrid_default)]->cache();
}

mem::DataCache& HybridCacheController::cache_for(mem::BlockAddr b) noexcept {
  const Protocol p = domain_protocol(ctx_.alloc.domain_of(b), ctx_.hybrid_default);
  return engines_[engine_index(p)]->cache_for(b);
}

WriteBufferUse HybridCacheController::write_buffer_use() const {
  WriteBufferUse u;
  for (const auto& e : engines_) {
    const WriteBufferUse eu = e->write_buffer_use();
    u.peak = std::max(u.peak, eu.peak);
    u.pushes += eu.pushes;
  }
  return u;
}

void HybridCacheController::cpu_load(Addr a, std::size_t size, LoadCallback done) {
  engine_for(a).cpu_load(a, size, std::move(done));
}

void HybridCacheController::cpu_store(Addr a, std::size_t size, std::uint64_t v,
                                      DoneCallback done) {
  engine_for(a).cpu_store(a, size, v, std::move(done));
}

void HybridCacheController::cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                       std::uint64_t v2, LoadCallback done) {
  engine_for(a).cpu_atomic(op, a, v1, v2, std::move(done));
}

void HybridCacheController::cpu_fence(DoneCallback done) {
  // Release semantics span all domains: chain the engines' fences.
  engines_[0]->cpu_fence([this, done = std::move(done)]() mutable {
    engines_[1]->cpu_fence([this, done = std::move(done)]() mutable {
      engines_[2]->cpu_fence(std::move(done));
    });
  });
}

void HybridCacheController::cpu_flush(Addr a, DoneCallback done) {
  engine_for(a).cpu_flush(a, std::move(done));
}

void HybridCacheController::on_message(const net::Message& msg) {
  engine_for(msg.addr).on_message(msg);
}

// ---------------------------------------------------------------------
// home side
// ---------------------------------------------------------------------

HybridHomeController::HybridHomeController(NodeId id, ProtocolContext& ctx,
                                           mem::MemTimings timings)
    : HomeController(id, ctx, timings) {
  engines_[0] = make_home_controller(Protocol::WI, id, ctx, timings);
  engines_[1] = make_home_controller(Protocol::PU, id, ctx, timings);
  engines_[2] = make_home_controller(Protocol::CU, id, ctx, timings);
}

HomeController& HybridHomeController::engine_for(Addr a) {
  const Protocol p = domain_protocol(ctx_.alloc.domain_of(mem::block_of(a)),
                                     ctx_.hybrid_default);
  return *engines_[engine_index(p)];
}

mem::MemoryModule& HybridHomeController::memory_for(mem::BlockAddr b) noexcept {
  const Protocol p = domain_protocol(ctx_.alloc.domain_of(b), ctx_.hybrid_default);
  return engines_[engine_index(p)]->memory_for(b);
}

mem::Directory& HybridHomeController::directory_for(mem::BlockAddr b) noexcept {
  const Protocol p = domain_protocol(ctx_.alloc.domain_of(b), ctx_.hybrid_default);
  return engines_[engine_index(p)]->directory_for(b);
}

void HybridHomeController::on_message(const net::Message& msg) {
  engine_for(msg.addr).on_message(msg);
}

} // namespace ccsim::proto
