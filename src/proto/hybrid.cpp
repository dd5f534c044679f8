#include "proto/hybrid.hpp"

#include "sim/check.hpp"

#include <algorithm>

namespace ccsim::proto {

static_assert(static_cast<int>(Protocol::WI) == 0 &&
                  static_cast<int>(Protocol::PU) == 1 &&
                  static_cast<int>(Protocol::CU) == 2,
              "a node's engines are indexed by a block's Protocol");

namespace {
/// The index of the engine serving `b`: its domain, which
/// Machine::bind_protocol sets to the block's Protocol (unbound: 0, WI).
std::size_t engine_of(const ProtocolContext& ctx, mem::BlockAddr b) {
  const unsigned d = ctx.alloc.domain_of(b);
  CCSIM_CHECK(d <= static_cast<unsigned>(Protocol::CU),
              "block=%#llx: domain %u names no WI, PU or CU engine",
              static_cast<unsigned long long>(b), d);
  return d;
}
} // namespace

// ---------------------------------------------------------------------
// cache side
// ---------------------------------------------------------------------

HybridCacheController::HybridCacheController(NodeId id, ProtocolContext& ctx,
                                             std::size_t cache_bytes)
    : CacheController(id, ctx) {
  for (std::size_t i = 0; i < engines_.size(); ++i)
    engines_[i] = make_cache_controller(static_cast<Protocol>(i), id, ctx, cache_bytes);
}

CacheController& HybridCacheController::engine_for(mem::BlockAddr b) {
  return *engines_[engine_of(ctx_, b)];
}

mem::DataCache& HybridCacheController::cache() noexcept {
  return engines_[static_cast<std::size_t>(Protocol::WI)]->cache();
}

mem::DataCache& HybridCacheController::cache_for(mem::BlockAddr b) noexcept {
  return engine_for(b).cache_for(b);
}

void HybridCacheController::for_each_cache(
    const std::function<void(const mem::DataCache&)>& f) {
  for (const auto& e : engines_) e->for_each_cache(f);
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
  engine_for(mem::block_of(a)).cpu_load(a, size, std::move(done));
}

void HybridCacheController::cpu_store(Addr a, std::size_t size, std::uint64_t v,
                                      DoneCallback done) {
  engine_for(mem::block_of(a)).cpu_store(a, size, v, std::move(done));
}

void HybridCacheController::cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                       std::uint64_t v2, LoadCallback done) {
  engine_for(mem::block_of(a)).cpu_atomic(op, a, v1, v2, std::move(done));
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
  engine_for(mem::block_of(a)).cpu_flush(a, std::move(done));
}

void HybridCacheController::on_message(const net::Message& msg) {
  engine_for(mem::block_of(msg.addr)).on_message(msg);
}

// ---------------------------------------------------------------------
// home side
// ---------------------------------------------------------------------

HybridHomeController::HybridHomeController(NodeId id, ProtocolContext& ctx)
    : HomeController(id, ctx) {
  for (std::size_t i = 0; i < engines_.size(); ++i)
    engines_[i] = make_home_controller(static_cast<Protocol>(i), id, ctx);
}

HomeController& HybridHomeController::engine_for(mem::BlockAddr b) {
  return *engines_[engine_of(ctx_, b)];
}

void HybridHomeController::on_message(const net::Message& msg) {
  engine_for(mem::block_of(msg.addr)).on_message(msg);
}

} // namespace ccsim::proto
