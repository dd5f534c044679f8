#include "proto/update_controllers.hpp"

#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// loads
// ---------------------------------------------------------------------

void UpdateCacheController::handle_load_miss(Addr a, std::size_t size, LoadCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  if (auto it = txns_.find(b); it != txns_.end()) {
    it->second.loads.push_back({a, size, std::move(done)});
    return;
  }
  ctx_.misses.classify_miss(id_, a);
  txns_[b].loads.push_back({a, size, std::move(done)});

  Message m;
  m.type = MsgType::GetS;
  m.dst = ctx_.alloc.home_of(b);
  m.addr = a;
  send(m);
}

void UpdateCacheController::fill(mem::BlockAddr b,
                                 const std::array<std::byte, mem::kBlockSize>& data) {
  mem::CacheLine& line = cache_.set_for(b);
  if (line.valid() && line.block != b) evict_line(line, /*flushing=*/false);
  line.block = b;
  line.state = mem::LineState::ValidU;
  line.data = data;
  line.cu_counter = 0;
  ctx_.misses.on_fill(id_, b);
  cache_.notify(b);

  auto it = txns_.find(b);
  if (it == txns_.end()) return;
  Txn t = std::move(it->second);
  txns_.erase(it);
  for (auto& w : t.loads) complete_load_later(w.addr, w.size, std::move(w.done));
  for (auto& r : t.retries) ctx_.q.schedule(1, std::move(r));
}

void UpdateCacheController::evict_line(mem::CacheLine& line, bool flushing) {
  const mem::BlockAddr b = line.block;
  Message m;
  m.dst = ctx_.alloc.home_of(b);
  m.addr = mem::block_base(b);
  if (line.state == mem::LineState::PrivateDirty) {
    m.type = MsgType::Writeback;
    m.flag = false;  // evicting: drop me from the sharing set
    m.has_block = true;
    m.block = line.data;
    note_writeback_sent(b);
  } else {
    m.type = MsgType::ReplHint;
  }
  send(m);
  ctx_.misses.on_evicted(id_, b);
  ctx_.updates.on_block_replaced(id_, b);
  line.state = mem::LineState::Invalid;
  cache_.notify(b);
  if (atomic_.active && mem::block_of(atomic_.addr) == b) atomic_.fill_ok = false;
  (void)flushing;
}

// ---------------------------------------------------------------------
// stores: write through to the home, no allocate on miss
// ---------------------------------------------------------------------

void UpdateCacheController::drain_head() {
  const mem::WriteBufferEntry e = wb_.front();
  if (!mem::is_shared(e.addr)) {
    private_mem_[e.addr] = e.value;
    entry_done();
    return;
  }
  const mem::BlockAddr b = mem::block_of(e.addr);
  mem::CacheLine* line = cache_.find(b);

  if (line && line->state == mem::LineState::PrivateDirty) {
    // Retained-update mode: the home asked us to keep updates local.
    ++ctx_.counters.mem.write_hits;
    cache_.write(e.addr, e.size, e.value);
    ctx_.misses.on_store(id_, e.addr);
    line->cu_counter = 0;
    // Single writer: a store into a private copy is globally ordered here.
    for (obs::Observer* o : ctx_.observers)
      o->on_global_write(id_, e.addr, word_at(e.addr));
    entry_done();
    return;
  }
  if (!line) {
    // Write-allocate: fetch the block first, then write through. The
    // writer stays a sharer afterwards, receiving updates for every later
    // modification of the block until it drops or flushes the copy.
    const mem::BlockAddr wb = mem::block_of(e.addr);
    if (auto it = txns_.find(wb); it != txns_.end()) {
      it->second.retries.push_back([this] { drain_head(); });
      return;
    }
    ctx_.misses.classify_miss(id_, e.addr);
    txns_[wb].retries.push_back([this] { drain_head(); });
    Message g;
    g.type = MsgType::GetS;
    g.dst = ctx_.alloc.home_of(wb);
    g.addr = e.addr;
    send(g);
    return;
  }
  // Keep our own copy fresh; the global store is performed at the home.
  ++ctx_.counters.mem.write_hits;
  cache_.write(e.addr, e.size, e.value);
  line->cu_counter = 0;
  for (obs::Observer* o : ctx_.observers) o->on_local_write(id_, e.addr, word_at(e.addr));
  Message m;
  m.type = MsgType::UpdateReq;
  m.dst = ctx_.alloc.home_of(b);
  m.addr = e.addr;
  m.payload = e.value;
  m.payload2 = e.size;
  send(m);
  ++outstanding_;  // one UpdateGrant per write-through
  entry_done();    // write-through does not block the buffer
}

// ---------------------------------------------------------------------
// atomics: executed at the home memory
// ---------------------------------------------------------------------

void UpdateCacheController::cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                       std::uint64_t v2, LoadCallback done) {
  assert(mem::is_shared(a));
  CCSIM_CHECK(!atomic_.active,
              "node=%u addr=%#llx cycle=%llu: second atomic issued while one "
              "is in flight",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(ctx_.q.now()));
  ++ctx_.counters.mem.atomics;
  // Atomic instructions force a write-buffer flush (paper, section 3.1).
  cpu_fence([this, op, a, v1, v2, done = std::move(done)]() mutable {
    ctx_.updates.on_reference(id_, a);
    const mem::BlockAddr b = mem::block_of(a);
    if (mem::CacheLine* line = cache_.find(b);
        line && line->state == mem::LineState::PrivateDirty) {
      // Give the dirty copy back first so the home operates on fresh data.
      // FIFO delivery guarantees the Writeback precedes the AtomicReq.
      Message wb;
      wb.type = MsgType::Writeback;
      wb.dst = ctx_.alloc.home_of(b);
      wb.addr = mem::block_base(b);
      wb.flag = true;  // demote: we keep a ValidU copy
      wb.has_block = true;
      wb.block = line->data;
      note_writeback_sent(b);
      send(wb);
      line->state = mem::LineState::ValidU;
    }
    atomic_ = PendingAtomic{op, a, v1, v2, std::move(done), true, true};
    Message m;
    m.type = MsgType::AtomicReq;
    m.dst = ctx_.alloc.home_of(mem::block_of(a));
    m.addr = a;
    m.op = op;
    m.payload = v1;
    m.payload2 = v2;
    send(m);
  });
}

// ---------------------------------------------------------------------
// flush
// ---------------------------------------------------------------------

void UpdateCacheController::cpu_flush(Addr a, DoneCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  // The flush takes effect after program-order-earlier stores to the block
  // have been performed (a queued store would otherwise re-fetch the block
  // via write-allocate right after we dropped it).
  if (wb_.contains_block(b) || txns_.contains(b)) {
    ctx_.q.schedule(1, [this, a, done = std::move(done)]() mutable {
      cpu_flush(a, std::move(done));
    });
    return;
  }
  if (mem::CacheLine* line = cache_.find(b)) evict_line(*line, /*flushing=*/true);
  ctx_.q.schedule(kHitCycles, std::move(done));
}

// ---------------------------------------------------------------------
// incoming messages
// ---------------------------------------------------------------------

void UpdateCacheController::apply_update(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  mem::CacheLine* line = cache_.find(b);

  Message ack;
  ack.type = MsgType::UpdateAck;
  ack.dst = msg.requester;
  ack.addr = msg.addr;

  if (!line) {
    // Stale update: we pruned or evicted the block while this message was
    // in flight. Still acknowledge so the writer's count settles.
    for (obs::Observer* o : ctx_.observers)
      o->on_update_delivered(id_, msg.addr, msg.requester, obs::Delivery::Stale, 0);
    send(ack);
    return;
  }
  if (drop_threshold_ != 0 && ++line->cu_counter >= drop_threshold_) {
    // Competitive policy: this update trips the counter; self-invalidate
    // and ask the home to stop sending updates.
    ctx_.updates.on_drop_update(id_, msg.addr);
    for (obs::Observer* o : ctx_.observers)
      o->on_update_delivered(id_, msg.addr, msg.requester, obs::Delivery::Dropped, 0);
    ctx_.misses.on_dropped(id_, b);
    line->state = mem::LineState::Invalid;
    cache_.notify(b);
    if (atomic_.active && mem::block_of(atomic_.addr) == b) atomic_.fill_ok = false;
    Message prune;
    prune.type = MsgType::Prune;
    prune.dst = ctx_.alloc.home_of(b);
    prune.addr = mem::block_base(b);
    send(prune);
    send(ack);
    return;
  }
  cache_.write(msg.addr, msg.payload2 ? msg.payload2 : mem::kWordSize, msg.payload);
  ctx_.updates.on_update_applied(id_, msg.addr);
  for (obs::Observer* o : ctx_.observers)
    o->on_update_delivered(id_, msg.addr, msg.requester, obs::Delivery::Applied,
                           word_at(msg.addr));
  cache_.notify(b);
  send(ack);
}

void UpdateCacheController::on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);

  // MSHR conflict: a fill must not evict a line whose own transaction is
  // outstanding; stall it until that transaction completes (defensive --
  // under the update protocols a valid line cannot have a transaction,
  // but the atomic-reply fill path shares this dispatch).
  if (msg.type == MsgType::DataS || msg.type == MsgType::AtomicReply) {
    const mem::CacheLine& victim = cache_.set_for(b);
    if (victim.valid() && victim.block != b) {
      if (auto it = txns_.find(victim.block); it != txns_.end()) {
        it->second.retries.push_back([this, msg] { on_message(msg); });
        return;
      }
    }
  }
  if (ctx_.trace)
    ctx_.trace->event(
        obs::recv_event(obs::TraceCat::Cache, ctx_.q.now(), id_, msg));
  switch (msg.type) {
    case MsgType::DataS:
      fill(b, msg.block);
      break;

    case MsgType::Update:
      apply_update(msg);
      break;

    case MsgType::UpdateGrant:
      --outstanding_;
      pending_acks_ += static_cast<std::int64_t>(msg.payload);
      if (msg.flag) {
        if (mem::CacheLine* line = cache_.find(b)) {
          line->state = mem::LineState::PrivateDirty;
          for (obs::Observer* o : ctx_.observers) o->on_writable(id_, b);
        }
      }
      check_fences();
      break;

    case MsgType::UpdateAck:
      --pending_acks_;
      check_fences();
      break;

    case MsgType::WritebackAck:
      note_writeback_acked(b);
      break;

    case MsgType::Recall: {
      mem::CacheLine* line = cache_.find(b);
      Message r;
      r.type = MsgType::RecallReply;
      r.dst = ctx_.alloc.home_of(b);
      r.addr = mem::block_base(b);
      if (line) {
        r.flag = false;
        r.has_block = true;
        r.block = line->data;
        line->state = mem::LineState::ValidU;
      } else {
        r.flag = true;  // absent: our eviction writeback is in flight
      }
      send(r);
      break;
    }

    case MsgType::AtomicReply: {
      CCSIM_CHECK(atomic_.active,
                  "node=%u block=%#llx cycle=%llu: atomic reply with no "
                  "atomic in flight",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      PendingAtomic pa = std::move(atomic_);
      atomic_.active = false;
      const std::uint64_t old = msg.payload;
      pending_acks_ += static_cast<std::int64_t>(msg.payload2);
      const mem::BlockAddr ab = mem::block_of(pa.addr);
      if (mem::CacheLine* line = cache_.find(ab)) {
        // Install the block image the home captured when it injected the
        // reply. FIFO delivery makes this exactly current: updates from
        // operations the home processed before the injection are included
        // in the image, and updates from later operations arrive after
        // this message and apply on top. (Recomputing old+delta locally
        // would clobber an update that overtook the reply.)
        line->data = msg.block;
        line->cu_counter = 0;
        cache_.notify(ab);
      } else if (pa.fill_ok) {
        // Atomically-accessed data is cached like everything else: the
        // reply carries the block, and the home made us a sharer. The
        // fetch counts as a miss (cold / drop / eviction by history).
        ctx_.misses.classify_miss(id_, pa.addr);
        fill(ab, msg.block);
      }
      check_fences();
      ctx_.q.schedule(kHitCycles, [done = std::move(pa.done), old] { done(old); });
      break;
    }

    default:
      CCSIM_CHECK(false,
                  "node=%u block=%#llx cycle=%llu: unexpected %s at update "
                  "cache controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

} // namespace ccsim::proto
