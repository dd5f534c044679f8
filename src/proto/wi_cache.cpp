#include "proto/wi_controllers.hpp"

#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;

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
  mem::CacheLine* line = cache_.find(mem::block_of(e.addr));
  if (line && line->state == mem::LineState::Modified) {
    ++ctx_.counters.mem.write_hits;
    perform_store(e);
    entry_done();
    return;
  }
  request_exclusive(e.addr, line, [this] { drain_head(); });
}

void WiCacheController::request_exclusive(Addr a, const mem::CacheLine* line,
                                          std::function<void()> retry) {
  if (!open_txn(mem::block_of(a), std::move(retry))) return;
  ++outstanding_;
  if (line && line->state == mem::LineState::Shared) {
    ctx_.misses.on_exclusive_request(id_);
    send(to_home(MsgType::Upgrade, a));
  } else {
    ctx_.misses.classify_miss(id_, a);
    send(to_home(MsgType::GetX, a));
  }
}

// ---------------------------------------------------------------------
// atomics (executed in the cache controller under WI)
// ---------------------------------------------------------------------

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
  mem::CacheLine* line = cache_.find(mem::block_of(a));
  if (line && line->state == mem::LineState::Modified) {
    do_atomic_local(op, a, v1, v2, std::move(done));
    return;
  }
  request_exclusive(a, line, [this, op, a, v1, v2, done = std::move(done)]() mutable {
    cpu_atomic_resume(op, a, v1, v2, std::move(done));
  });
}

// ---------------------------------------------------------------------
// incoming messages
// ---------------------------------------------------------------------

void WiCacheController::on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  ctx_.trace_recv(obs::TraceCat::Cache, id_, msg);

  switch (msg.type) {
    case MsgType::DataS:
    case MsgType::OwnerDataS:
      if (fill_blocked(msg)) return;
      fill(b, msg.block, mem::LineState::Shared);
      complete_txn(b);
      break;

    case MsgType::DataX:
    case MsgType::OwnerDataX:
    case MsgType::UpgAck: {
      if (msg.type == MsgType::UpgAck) {
        mem::CacheLine* line = cache_.find(b);
        CCSIM_CHECK(line && line->state == mem::LineState::Shared,
                    "node=%u block=%#llx cycle=%llu: upgrade grant for a line "
                    "not held Shared",
                    static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(ctx_.q.now()));
        line->state = mem::LineState::Modified;
      } else {
        if (fill_blocked(msg)) return;
        fill(b, msg.block, mem::LineState::Modified);
      }
      pending_acks_ += static_cast<std::int64_t>(msg.payload);
      --outstanding_;
      for (obs::Observer* o : ctx_.observers) o->on_writable(id_, b);
      send(to_home(MsgType::ExclDone, mem::block_base(b)));
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

    case MsgType::FwdGetS:
    case MsgType::FwdGetX: {
      mem::CacheLine* line = cache_.find(b);
      // Nack if the block is gone, or if our own writeback of it is still
      // in flight: the home replays this transaction off the writeback.
      // (Deferring here would deadlock -- our refetch is queued at the
      // home behind the very transaction this forward belongs to.)
      if (!line || (line->state != mem::LineState::Modified && writeback_in_flight(b))) {
        send(to_home(MsgType::FwdNack, msg.addr));
        break;
      }
      Message d;
      d.dst = msg.requester;
      d.addr = msg.addr;
      d.has_block = true;
      d.block = line->data;
      if (msg.type == MsgType::FwdGetS) {
        d.type = MsgType::OwnerDataS;
        send(d);
        Message wb = to_home(MsgType::SharedWB, mem::block_base(b));
        wb.requester = msg.requester;
        wb.has_block = true;
        wb.block = line->data;
        send(wb);
        line->state = mem::LineState::Shared;
      } else {
        d.type = MsgType::OwnerDataX;  // payload 0: no invalidation acks follow
        send(d);
        invalidate_line(*line, msg.addr);
      }
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
