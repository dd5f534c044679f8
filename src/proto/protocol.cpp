#include "proto/protocol.hpp"

#include "proto/cache_base.hpp"
#include "proto/update_controllers.hpp"
#include "proto/hybrid.hpp"
#include "proto/wi_controllers.hpp"
#include "sim/check.hpp"

namespace ccsim::proto {

bool is_home_bound(net::MsgType t) noexcept {
  using net::MsgType;
  switch (t) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::Upgrade:
    case MsgType::SharedWB:
    case MsgType::ExclDone:
    case MsgType::TransferAck:
    case MsgType::FwdNack:
    case MsgType::Writeback:
    case MsgType::ReplHint:
    case MsgType::UpdateReq:
    case MsgType::Prune:
    case MsgType::RecallReply:
    case MsgType::AtomicReq:
      return true;
    default:
      return false;
  }
}

std::uint64_t apply_atomic(net::AtomicOp op, std::uint64_t old, std::uint64_t v1,
                           std::uint64_t v2, bool& wrote) {
  wrote = true;
  switch (op) {
    case net::AtomicOp::FetchAdd: return old + v1;
    case net::AtomicOp::FetchStore: return v1;
    case net::AtomicOp::CompareSwap:
      if (old == v1) return v2;
      wrote = false;
      return old;
  }
  wrote = false;
  return old;
}

std::unique_ptr<CacheController> make_cache_controller(Protocol p, NodeId id,
                                                       ProtocolContext& ctx,
                                                       std::size_t cache_bytes) {
  switch (p) {
    case Protocol::WI:
      return std::make_unique<WiCacheController>(id, ctx, cache_bytes);
    case Protocol::PU:
      return std::make_unique<UpdateCacheController>(id, ctx, cache_bytes,
                                                     /*drop_threshold=*/0);
    case Protocol::CU:
      return std::make_unique<UpdateCacheController>(id, ctx, cache_bytes,
                                                     ctx.cu_threshold);
    case Protocol::Hybrid:
      return std::make_unique<HybridCacheController>(id, ctx, cache_bytes);
  }
  return nullptr;
}

std::unique_ptr<HomeController> make_home_controller(Protocol p, NodeId id,
                                                     ProtocolContext& ctx) {
  switch (p) {
    case Protocol::WI:
      return std::make_unique<WiHomeController>(id, ctx);
    case Protocol::PU:
      return std::make_unique<UpdateHomeController>(id, ctx, /*enable_private=*/true);
    case Protocol::CU:
      return std::make_unique<UpdateHomeController>(id, ctx, /*enable_private=*/false);
    case Protocol::Hybrid:
      return std::make_unique<HybridHomeController>(id, ctx);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// HomeController
// ---------------------------------------------------------------------

void HomeController::admit(const net::Message& req) {
  const mem::BlockAddr b = mem::block_of(req.addr);
  for (obs::Observer* o : ctx_.observers) o->on_home_txn(b);
  if (Hold* h = held(b))
    h->parked.push_back(req);
  else
    serve(req);
}

HomeController::Hold& HomeController::hold(const net::Message& req) {
  const mem::BlockAddr b = mem::block_of(req.addr);
  auto [it, fresh] = holds_.try_emplace(b, Hold{req, {}, false, false});
  CCSIM_CHECK(fresh, "home=%u block=%#llx cycle=%llu: holding a block that is held",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(ctx_.q.now()));
  return it->second;
}

void HomeController::close(mem::BlockAddr b) {
  CCSIM_CHECK(held(b) != nullptr,
              "home=%u block=%#llx cycle=%llu: closing a transaction that is "
              "not open",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(ctx_.q.now()));
  release(b, false);
}

void HomeController::release(mem::BlockAddr b, bool serve_holder) {
  auto it = holds_.find(b);
  if (it == holds_.end()) return;
  const Hold h = std::move(it->second);
  holds_.erase(it);
  if (serve_holder) serve(h.req);
  for (auto m = h.parked.begin();; ++m) {
    if (Hold* next = held(b)) {
      // Serving held the block again; the rest stay parked behind it.
      next->parked.assign(m, h.parked.end());
      return;
    }
    if (m == h.parked.end()) return;
    serve(*m);
  }
}

void HomeController::reply_at(Cycle ready, const net::Message& m) {
  const std::uint32_t index = replies_.park(m);
  ctx_.q.schedule_at(ready, [this, index] {
    net::Message r = replies_.take(index);
    if (r.has_block) r.block = ctx_.homes.read_block(mem::block_of(r.addr));
    send_from(r);
  });
}

unsigned HomeController::multicast(const mem::DirEntry& e, net::Message m, NodeId skip) {
  unsigned sent = 0;
  for (NodeId s = 0; s < ctx_.nprocs; ++s) {
    if (s == skip || !e.has_sharer(s)) continue;
    m.dst = s;
    send_from(m);
    if (m.type == net::MsgType::Inval)
      for (obs::Observer* o : ctx_.observers) o->on_inval_sent(s, m.addr, m.requester);
    ++sent;
  }
  return sent;
}

void HomeController::absorb_writeback(const net::Message& wb) {
  const mem::BlockAddr b = mem::block_of(wb.addr);
  bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
  ctx_.homes.write_block(b, wb.block);
  net::Message ack;
  ack.type = net::MsgType::WritebackAck;
  ack.dst = wb.src;
  ack.addr = mem::block_base(b);
  send_from(ack);
  if (Hold* h = held(b)) {
    h->wb_processed = true;
    if (h->waiting_wb) replay(b);
  }
}

// ---------------------------------------------------------------------
// BaseCacheController
// ---------------------------------------------------------------------

void BaseCacheController::cpu_load(Addr a, std::size_t size, LoadCallback done) {
  assert(mem::within_word(a, size));
  if (!mem::is_shared(a)) {
    const std::uint64_t v = read_private(a);
    ctx_.q.schedule(kHitCycles, [done = std::move(done), v] { done(v); });
    return;
  }
  ++ctx_.counters.mem.shared_reads;
  ctx_.updates.on_reference(id_, a);

  // Reads bypass queued writes; an exactly-matching queued store forwards.
  if (auto fwd = wb_.forward(a, size)) {
    ctx_.q.schedule(kHitCycles, [done = std::move(done), v = *fwd] { done(v); });
    return;
  }
  if (wb_.partially_overlaps(a, size)) {
    // Rare: wait a cycle for the buffer to drain past the overlap.
    ctx_.q.schedule(1, [this, a, size, done = std::move(done)]() mutable {
      --ctx_.counters.mem.shared_reads;  // will be recounted on retry
      cpu_load(a, size, std::move(done));
    });
    return;
  }

  if (mem::CacheLine* line = cache_.find(mem::block_of(a))) {
    ++ctx_.counters.mem.read_hits;
    on_cache_hit(*line, a);
    complete_load_later(a, size, std::move(done));
    return;
  }
  fetch_shared(a, LoadWaiter{a, size, std::move(done)});
}

void BaseCacheController::cpu_store(Addr a, std::size_t size, std::uint64_t v,
                                    DoneCallback done) {
  assert(mem::within_word(a, size));
  if (!mem::is_shared(a)) {
    private_mem_[a] = v;
    ctx_.q.schedule(kHitCycles, std::move(done));
    return;
  }
  ++ctx_.counters.mem.shared_writes;
  ctx_.updates.on_reference(id_, a);

  // Under sequential consistency the store completes (from the
  // processor's view) only once globally performed: chain a full fence
  // behind the buffer-accept.
  if (ctx_.consistency == Consistency::Sequential) {
    done = [this, done = std::move(done)]() mutable { cpu_fence(std::move(done)); };
  }

  const mem::WriteBufferEntry e{a, size, v};
  if (!wb_.full()) {
    wb_.push(e);
    ctx_.q.schedule(kHitCycles, std::move(done));
    kick_drain();
    return;
  }
  store_stalls_.push_back({e, std::move(done), ctx_.q.now()});
}

void BaseCacheController::cpu_fence(DoneCallback done) {
  if (fence_clear()) {
    ctx_.q.schedule(0, std::move(done));
    return;
  }
  const Cycle entered = ctx_.q.now();
  fence_waiters_.push_back([this, entered, done = std::move(done)]() mutable {
    ctx_.counters.mem.fence_stall_cycles += ctx_.q.now() - entered;
    done();
  });
}

void BaseCacheController::cpu_flush(Addr a, DoneCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  // The flush takes effect after program-order-earlier stores to the block
  // have been performed (a queued store would otherwise re-fetch the block
  // right after we dropped it).
  if (wb_.contains_block(b) || txns_.contains(b)) {
    ctx_.q.schedule(1, [this, a, done = std::move(done)]() mutable {
      cpu_flush(a, std::move(done));
    });
    return;
  }
  if (mem::CacheLine* line = cache_.find(b)) evict(*line);
  ctx_.q.schedule(kHitCycles, std::move(done));
}

void BaseCacheController::evict(mem::CacheLine& line) {
  const mem::BlockAddr b = line.block;
  net::Message m = to_home(net::MsgType::ReplHint, mem::block_base(b));
  if (line.state == mem::LineState::Modified ||
      line.state == mem::LineState::PrivateDirty) {
    m.type = net::MsgType::Writeback;  // flag false: drop me from the sharers
    m.has_block = true;
    m.block = line.data;
    note_writeback_sent(b);
  }
  send(m);
  ctx_.misses.on_evicted(id_, b);
  ctx_.updates.on_block_replaced(id_, b);
  line.state = mem::LineState::Invalid;
  cache_.notify(b);
}

void BaseCacheController::fill(mem::BlockAddr b,
                               const std::array<std::byte, mem::kBlockSize>& data,
                               mem::LineState state) {
  mem::CacheLine& line = cache_.set_for(b);
  if (line.valid() && line.block != b) evict(line);
  line.block = b;
  line.state = state;
  line.data = data;
  line.cu_counter = 0;
  ctx_.misses.on_fill(id_, b);
  cache_.notify(b);
}

void BaseCacheController::invalidate_line(mem::CacheLine& l, Addr trigger) {
  ctx_.misses.on_invalidated(id_, l.block, trigger);
  l.state = mem::LineState::Invalid;
  cache_.notify(l.block);
}

bool BaseCacheController::fill_blocked(const net::Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  const mem::CacheLine& victim = cache_.set_for(b);
  if (!victim.valid() || victim.block == b) return false;
  auto it = txns_.find(victim.block);
  if (it == txns_.end()) return false;
  it->second.retries.push_back([this, msg] { on_message(msg); });
  return true;
}

void BaseCacheController::complete_txn(mem::BlockAddr b) {
  auto it = txns_.find(b);
  CCSIM_CHECK(it != txns_.end(),
              "node=%u block=%#llx cycle=%llu: transaction completing that was "
              "never opened",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(ctx_.q.now()));
  Txn t = std::move(it->second);
  txns_.erase(it);

  // Waiting loads complete at +1 reading the line then (see
  // complete_load_later); if the deferred invalidation below takes the
  // line first, they retry with a fresh fetch.
  for (auto& w : t.loads) complete_load_later(w.addr, w.size, std::move(w.done));
  for (auto& r : t.retries) ctx_.q.schedule(1, std::move(r));

  if (t.inval_on_fill) {
    if (mem::CacheLine* line = cache_.find(b)) invalidate_line(*line, t.inval_trigger);
  }
}

void BaseCacheController::entry_done() {
  wb_.pop();
  if (!store_stalls_.empty()) {
    StalledStore s = std::move(store_stalls_.front());
    store_stalls_.erase(store_stalls_.begin());
    ctx_.counters.mem.write_buffer_stalls += ctx_.q.now() - s.since;
    wb_.push(s.entry);
    ctx_.q.schedule(kHitCycles, std::move(s.done));
  }
  check_fences();
  if (!wb_.empty())
    ctx_.q.schedule(1, [this] { drain_head(); });
  else
    draining_ = false;
}

void BaseCacheController::kick_drain() {
  if (draining_ || wb_.empty()) return;
  draining_ = true;
  ctx_.q.schedule(1, [this] { drain_head(); });
}

void BaseCacheController::check_fences() {
  if (!fence_clear() || fence_waiters_.empty()) return;
  std::vector<DoneCallback> ws = std::move(fence_waiters_);
  fence_waiters_.clear();
  for (auto& w : ws) w();
}

} // namespace ccsim::proto
