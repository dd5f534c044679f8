#include "proto/wi_controllers.hpp"

#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// loads
// ---------------------------------------------------------------------

void WiCacheController::handle_load_miss(Addr a, std::size_t size, LoadCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  if (auto it = txns_.find(b); it != txns_.end()) {
    // An outstanding fetch will satisfy this load; it is not a new miss.
    it->second.loads.push_back({a, size, std::move(done)});
    return;
  }
  ctx_.misses.classify_miss(id_, a);
  Txn& t = txns_[b];
  t.want_exclusive = false;
  t.loads.push_back({a, size, std::move(done)});

  Message m;
  m.type = MsgType::GetS;
  m.dst = ctx_.alloc.home_of(b);
  m.addr = a;
  send(m);
}

// ---------------------------------------------------------------------
// stores (write-buffer drain)
// ---------------------------------------------------------------------

void WiCacheController::perform_store(const mem::WriteBufferEntry& e) {
  cache_.write(e.addr, e.size, e.value);
  ctx_.misses.on_store(id_, e.addr);
  // A store into a Modified line is globally ordered the moment it lands.
  for (obs::Observer* o : ctx_.observers)
    o->on_global_write(id_, e.addr, word_at(e.addr));
}

void WiCacheController::drain_head() {
  const mem::WriteBufferEntry e = wb_.front();
  if (!mem::is_shared(e.addr)) {
    private_mem_[e.addr] = e.value;
    entry_done();
    return;
  }
  const mem::BlockAddr b = mem::block_of(e.addr);
  mem::CacheLine* line = cache_.find(b);

  if (line && line->state == mem::LineState::Modified) {
    ++ctx_.counters.mem.write_hits;
    perform_store(e);
    entry_done();
    return;
  }
  if (auto it = txns_.find(b); it != txns_.end()) {
    it->second.retries.push_back([this] { drain_head(); });
    return;
  }
  Txn& t = txns_[b];
  t.want_exclusive = true;
  t.retries.push_back([this] { drain_head(); });
  ++outstanding_;

  Message m;
  m.addr = e.addr;
  m.dst = ctx_.alloc.home_of(b);
  if (line && line->state == mem::LineState::Shared) {
    ctx_.misses.on_exclusive_request(id_);
    t.upgrade = true;
    m.type = MsgType::Upgrade;
  } else {
    ctx_.misses.classify_miss(id_, e.addr);
    m.type = MsgType::GetX;
  }
  send(m);
}

// ---------------------------------------------------------------------
// atomics (executed in the cache controller under WI)
// ---------------------------------------------------------------------

namespace {
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
} // namespace

void WiCacheController::do_atomic_local(net::AtomicOp op, Addr a, std::uint64_t v1,
                                        std::uint64_t v2, LoadCallback done) {
  const std::uint64_t old = cache_.read(a, mem::kWordSize);
  for (obs::Observer* o : ctx_.observers) o->on_read(id_, a, old);
  bool wrote = false;
  const std::uint64_t next = apply_atomic(op, old, v1, v2, wrote);
  if (wrote) {
    cache_.write(a, mem::kWordSize, next);
    ctx_.misses.on_store(id_, a);
    for (obs::Observer* o : ctx_.observers) o->on_global_write(id_, a, next);
  }
  ctx_.q.schedule(kAtomicCycles, [done = std::move(done), old] { done(old); });
}

void WiCacheController::cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                   std::uint64_t v2, LoadCallback done) {
  assert(mem::is_shared(a));
  ++ctx_.counters.mem.atomics;
  // Atomic instructions force a write-buffer flush (paper, section 3.1).
  cpu_fence([this, op, a, v1, v2, done = std::move(done)]() mutable {
    ctx_.updates.on_reference(id_, a);
    cpu_atomic_resume(op, a, v1, v2, std::move(done));
  });
}

void WiCacheController::cpu_atomic_resume(net::AtomicOp op, Addr a, std::uint64_t v1,
                                          std::uint64_t v2, LoadCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  mem::CacheLine* line = cache_.find(b);
  if (line && line->state == mem::LineState::Modified) {
    do_atomic_local(op, a, v1, v2, std::move(done));
    return;
  }
  if (auto it = txns_.find(b); it != txns_.end()) {
    it->second.retries.push_back([this, op, a, v1, v2, done = std::move(done)]() mutable {
      cpu_atomic_resume(op, a, v1, v2, std::move(done));
    });
    return;
  }
  Txn& t = txns_[b];
  t.want_exclusive = true;
  t.retries.push_back([this, op, a, v1, v2, done = std::move(done)]() mutable {
    cpu_atomic_resume(op, a, v1, v2, std::move(done));
  });
  ++outstanding_;

  Message m;
  m.addr = a;
  m.dst = ctx_.alloc.home_of(b);
  if (line && line->state == mem::LineState::Shared) {
    ctx_.misses.on_exclusive_request(id_);
    t.upgrade = true;
    m.type = MsgType::Upgrade;
  } else {
    ctx_.misses.classify_miss(id_, a);
    m.type = MsgType::GetX;
  }
  send(m);
}

// ---------------------------------------------------------------------
// flush
// ---------------------------------------------------------------------

void WiCacheController::cpu_flush(Addr a, DoneCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  // Wait for program-order-earlier stores to the block to be performed.
  if (wb_.contains_block(b) || txns_.contains(b)) {
    ctx_.q.schedule(1, [this, a, done = std::move(done)]() mutable {
      cpu_flush(a, std::move(done));
    });
    return;
  }
  if (mem::CacheLine* line = cache_.find(b)) {
    Message m;
    m.dst = ctx_.alloc.home_of(b);
    m.addr = mem::block_base(b);
    if (line->state == mem::LineState::Modified) {
      m.type = MsgType::Writeback;
      m.has_block = true;
      m.block = line->data;
      note_writeback_sent(b);
    } else {
      m.type = MsgType::ReplHint;
    }
    send(m);
    ctx_.misses.on_evicted(id_, b);
    ctx_.updates.on_block_replaced(id_, b);
    line->state = mem::LineState::Invalid;
    cache_.notify(b);
  }
  ctx_.q.schedule(kHitCycles, std::move(done));
}

// ---------------------------------------------------------------------
// fills, evictions, transaction completion
// ---------------------------------------------------------------------

void WiCacheController::evict_for(mem::BlockAddr incoming) {
  mem::CacheLine& line = cache_.set_for(incoming);
  if (!line.valid() || line.block == incoming) return;
  Message m;
  m.dst = ctx_.alloc.home_of(line.block);
  m.addr = mem::block_base(line.block);
  if (line.state == mem::LineState::Modified) {
    m.type = MsgType::Writeback;
    m.has_block = true;
    m.block = line.data;
    note_writeback_sent(line.block);
  } else {
    m.type = MsgType::ReplHint;
  }
  send(m);
  ctx_.misses.on_evicted(id_, line.block);
  ctx_.updates.on_block_replaced(id_, line.block);
  line.state = mem::LineState::Invalid;
  cache_.notify(line.block);
}

void WiCacheController::fill(mem::BlockAddr b,
                             const std::array<std::byte, mem::kBlockSize>& data,
                             mem::LineState state) {
  evict_for(b);
  mem::CacheLine& line = cache_.set_for(b);
  line.block = b;
  line.state = state;
  line.data = data;
  line.cu_counter = 0;
  ctx_.misses.on_fill(id_, b);
  cache_.notify(b);
}

void WiCacheController::invalidate_line(mem::CacheLine& l, Addr trigger) {
  ctx_.misses.on_invalidated(id_, l.block, trigger);
  l.state = mem::LineState::Invalid;
  cache_.notify(l.block);
}

void WiCacheController::complete_txn(mem::BlockAddr b) {
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

// ---------------------------------------------------------------------
// incoming messages
// ---------------------------------------------------------------------

void WiCacheController::on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  if (ctx_.trace)
    ctx_.trace->event(
        obs::recv_event(obs::TraceCat::Cache, ctx_.q.now(), id_, msg));

  // A fill may not evict a line with its own transaction outstanding (the
  // Upgrade's grant would arrive for a line we no longer hold) -- the MSHR
  // conflict stalls the fill until the victim's transaction completes.
  switch (msg.type) {
    case MsgType::DataS:
    case MsgType::OwnerDataS:
    case MsgType::DataX:
    case MsgType::OwnerDataX: {
      const mem::CacheLine& victim = cache_.set_for(b);
      if (victim.valid() && victim.block != b) {
        if (auto it = txns_.find(victim.block); it != txns_.end()) {
          it->second.retries.push_back([this, msg] { on_message(msg); });
          return;
        }
      }
      break;
    }
    default:
      break;
  }

  switch (msg.type) {
    case MsgType::DataS:
    case MsgType::OwnerDataS:
      fill(b, msg.block, mem::LineState::Shared);
      complete_txn(b);
      break;

    case MsgType::DataX:
    case MsgType::OwnerDataX: {
      pending_acks_ += static_cast<std::int64_t>(msg.payload);
      --outstanding_;
      fill(b, msg.block, mem::LineState::Modified);
      for (obs::Observer* o : ctx_.observers) o->on_writable(id_, b);
      Message fin;
      fin.type = MsgType::ExclDone;
      fin.dst = ctx_.alloc.home_of(b);
      fin.addr = mem::block_base(b);
      send(fin);
      complete_txn(b);
      check_fences();
      break;
    }

    case MsgType::UpgAck: {
      mem::CacheLine* line = cache_.find(b);
      CCSIM_CHECK(line && line->state == mem::LineState::Shared,
                  "node=%u block=%#llx cycle=%llu: upgrade grant for a line "
                  "not held Shared",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      line->state = mem::LineState::Modified;
      for (obs::Observer* o : ctx_.observers) o->on_writable(id_, b);
      pending_acks_ += static_cast<std::int64_t>(msg.payload);
      --outstanding_;
      Message fin;
      fin.type = MsgType::ExclDone;
      fin.dst = ctx_.alloc.home_of(b);
      fin.addr = mem::block_base(b);
      send(fin);
      complete_txn(b);
      check_fences();
      break;
    }

    case MsgType::Inval: {
      if (mem::CacheLine* line = cache_.find(b)) {
        invalidate_line(*line, msg.addr);
      } else if (auto it = txns_.find(b); it != txns_.end()) {
        it->second.inval_on_fill = true;
        it->second.inval_trigger = msg.addr;
      }
      Message ack;
      ack.type = MsgType::InvalAck;
      ack.dst = msg.requester;
      ack.addr = msg.addr;
      send(ack);
      break;
    }

    case MsgType::InvalAck:
      --pending_acks_;
      check_fences();
      break;

    case MsgType::WritebackAck:
      note_writeback_acked(b);
      break;

    case MsgType::FwdGetS: {
      mem::CacheLine* line = cache_.find(b);
      if (!line || line->state != mem::LineState::Modified) {
        // If our own writeback of this block is still in flight, the home
        // will replay this transaction off it: nack. (Deferring here would
        // deadlock -- our refetch is queued at the home behind the very
        // transaction this forward belongs to.)
        if (writeback_in_flight(b)) {
          Message n;
          n.type = MsgType::FwdNack;
          n.dst = ctx_.alloc.home_of(b);
          n.addr = msg.addr;
          send(n);
          break;
        }
      }
      if (!line) {
        Message n;
        n.type = MsgType::FwdNack;
        n.dst = ctx_.alloc.home_of(b);
        n.addr = msg.addr;
        send(n);
        break;
      }
      Message d;
      d.type = MsgType::OwnerDataS;
      d.dst = msg.requester;
      d.addr = msg.addr;
      d.has_block = true;
      d.block = line->data;
      send(d);
      Message wb;
      wb.type = MsgType::SharedWB;
      wb.dst = ctx_.alloc.home_of(b);
      wb.addr = mem::block_base(b);
      wb.requester = msg.requester;
      wb.has_block = true;
      wb.block = line->data;
      send(wb);
      line->state = mem::LineState::Shared;
      break;
    }

    case MsgType::FwdGetX: {
      mem::CacheLine* line = cache_.find(b);
      if (!line || line->state != mem::LineState::Modified) {
        if (writeback_in_flight(b)) {  // see FwdGetS
          Message n;
          n.type = MsgType::FwdNack;
          n.dst = ctx_.alloc.home_of(b);
          n.addr = msg.addr;
          send(n);
          break;
        }
      }
      if (!line) {
        Message n;
        n.type = MsgType::FwdNack;
        n.dst = ctx_.alloc.home_of(b);
        n.addr = msg.addr;
        send(n);
        break;
      }
      Message d;
      d.type = MsgType::OwnerDataX;
      d.dst = msg.requester;
      d.addr = msg.addr;
      d.payload = 0;  // no invalidation acks follow a forwarded transfer
      d.has_block = true;
      d.block = line->data;
      send(d);
      invalidate_line(*line, msg.addr);
      break;
    }

    default:
      CCSIM_CHECK(false,
                  "node=%u block=%#llx cycle=%llu: unexpected %s at WI cache "
                  "controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

} // namespace ccsim::proto
