#include "proto/update_controllers.hpp"

#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;
using mem::DirEntry;
using mem::DirState;

void UpdateHomeController::on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  ctx_.trace_recv(obs::TraceCat::Home, id_, msg);
  switch (msg.type) {
    case MsgType::GetS:
    case MsgType::UpdateReq:
    case MsgType::AtomicReq:
      admit(msg);
      return;

    case MsgType::Prune:
    case MsgType::ReplHint: {
      bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
      DirEntry& e = ctx_.homes.entry(b);
      e.remove_sharer(msg.src);
      if (e.state == DirState::Private && e.owner == msg.src) {
        // The owner dropped a still-clean copy before learning it had been
        // granted private mode (the grant and the hint crossed). Memory is
        // current, so dissolve private mode and release anything parked.
        e.state = e.sharers == 0 ? DirState::Unowned : DirState::Update;
        e.owner = kInvalidNode;
        replay(b);
      } else if (e.state == DirState::Update && e.sharers == 0) {
        e.state = DirState::Unowned;
      }
      return;
    }

    case MsgType::Writeback: {
      DirEntry& e = ctx_.homes.entry(b);
      if (msg.flag) {
        // Demotion: the writer keeps a ValidU copy.
        e.state = DirState::Update;
        e.owner = kInvalidNode;
        e.add_sharer(msg.src);
      } else {
        // Eviction of a private-dirty copy.
        e.remove_sharer(msg.src);
        e.owner = kInvalidNode;
        e.state = e.sharers == 0 ? DirState::Unowned : DirState::Update;
      }
      absorb_writeback(msg);
      return;
    }

    case MsgType::RecallReply: {
      Hold* h = held(b);
      CCSIM_CHECK(h != nullptr,
                  "home=%u block=%#llx cycle=%llu: RecallReply without a "
                  "recall in flight",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      if (msg.flag) {
        // Owner evicted; wait for its Writeback (unless it already landed).
        if (ctx_.homes.entry(b).state != DirState::Private)
          replay(b);
        else
          h->waiting_wb = true;
        return;
      }
      bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
      ctx_.homes.write_block(b, msg.block);
      DirEntry& e = ctx_.homes.entry(b);
      e.state = DirState::Update;
      e.owner = kInvalidNode;
      e.add_sharer(msg.src);  // the demoted owner keeps its copy
      replay(b);
      return;
    }

    default:
      CCSIM_CHECK(false,
                  "home=%u block=%#llx cycle=%llu: unexpected %s at update "
                  "home controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

void UpdateHomeController::serve(const Message& msg) {
  switch (msg.type) {
    case MsgType::GetS: serve_gets(msg); break;
    case MsgType::UpdateReq: serve_update(msg); break;
    case MsgType::AtomicReq: serve_atomic(msg); break;
    default:
      CCSIM_CHECK(false, "home=%u cycle=%llu: %s is not a queueable request",
                  static_cast<unsigned>(id_),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

void UpdateHomeController::hold_private(const DirEntry& e, const Message& req) {
  if (e.owner == req.src) {
    // The owner gave the block up and asks again before its writeback
    // arrived: wait for the writeback to settle the state.
    hold(req).waiting_wb = true;
    return;
  }
  hold(req);
  Message r;
  r.type = MsgType::Recall;
  r.dst = e.owner;
  r.addr = mem::block_base(mem::block_of(req.addr));
  send_from(r);
}

void UpdateHomeController::grant(const Message& msg, unsigned count, bool make_private) {
  Message g;
  g.type = MsgType::UpdateGrant;
  g.dst = msg.src;
  g.addr = msg.addr;
  g.payload = count;
  g.flag = make_private;
  send_from(g);
}

unsigned UpdateHomeController::multicast_update(const DirEntry& e, Addr word_addr,
                                                std::uint64_t value, std::size_t size,
                                                NodeId writer) {
  Message u;
  u.type = MsgType::Update;
  u.addr = word_addr;
  u.payload = value;
  u.payload2 = size;
  u.requester = writer;
  return multicast(e, u, writer);
}

void UpdateHomeController::serve_gets(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  DirEntry& e = ctx_.homes.entry(b);
  if (e.state == DirState::Private) {
    hold_private(e, msg);
    return;
  }
  const Cycle ready = bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockRead);
  Message d;
  d.type = MsgType::DataS;
  d.dst = msg.src;
  d.addr = msg.addr;
  d.has_block = true;
  e.state = DirState::Update;
  e.add_sharer(msg.src);
  reply_at(ready, d);
}

void UpdateHomeController::serve_update(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  DirEntry& e = ctx_.homes.entry(b);
  // A writer racing its own private grant stays private.
  const bool own_private = e.state == DirState::Private && e.owner == msg.src;
  if (e.state == DirState::Private && !own_private) {
    hold_private(e, msg);
    return;
  }

  bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::WordWrite);
  ctx_.homes.write_word(msg.addr, msg.payload2, msg.payload);
  ctx_.misses.on_store(msg.src, msg.addr);
  // The home orders update-protocol writes: this is the global-order point.
  for (obs::Observer* o : ctx_.observers)
    o->on_global_write(msg.src, msg.addr,
                       ctx_.homes.read_word(mem::word_base(msg.addr), mem::kWordSize));

  if (own_private) {
    grant(msg, 0, true);
    return;
  }
  if (enable_private_ && e.state == DirState::Update && e.only_sharer_is(msg.src)) {
    // Only the writer caches this block: tell it to retain future updates
    // (PU's private-block optimization, paper section 3.1).
    e.state = DirState::Private;
    e.owner = msg.src;
    grant(msg, 0, true);
    return;
  }

  grant(msg, multicast_update(e, msg.addr, msg.payload, msg.payload2, msg.src), false);
}

void UpdateHomeController::serve_atomic(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  DirEntry& e = ctx_.homes.entry(b);
  if (e.state == DirState::Private) {
    // An atomic's requester demotes before issuing it, and FIFO delivery
    // puts its Writeback ahead of the AtomicReq -- but the grant that made
    // it private may still have been in flight when it fenced.
    hold_private(e, msg);
    return;
  }

  const Cycle ready = bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::WordRead);
  const std::uint64_t old = ctx_.homes.read_word(msg.addr, mem::kWordSize);
  bool wrote = false;
  const std::uint64_t next = apply_atomic(msg.op, old, msg.payload, msg.payload2, wrote);
  for (obs::Observer* o : ctx_.observers) o->on_read(msg.src, msg.addr, old);
  if (wrote) {
    ctx_.homes.write_word(msg.addr, mem::kWordSize, next);
    ctx_.misses.on_store(msg.src, msg.addr);
    for (obs::Observer* o : ctx_.observers) o->on_global_write(msg.src, msg.addr, next);
  }

  // Atomically-accessed data follows the same coherence protocol as all
  // other shared data (section 3.1): the requester caches the block, so it
  // joins the sharing set and the reply carries the block image. This is
  // what makes every MCS acquire/release multicast the tail pointer to all
  // past lockers under PU -- the paper's "sharing the global pointer to
  // the end of the list".
  e.add_sharer(msg.src);
  if (e.state == DirState::Unowned) e.state = DirState::Update;

  const unsigned count =
      wrote ? multicast_update(e, msg.addr, next, mem::kWordSize, msg.src) : 0;

  Message r;
  r.type = MsgType::AtomicReply;
  r.dst = msg.src;
  r.addr = msg.addr;
  r.payload = old;
  r.payload2 = count;
  r.has_block = true;
  reply_at(ready, r);
}

} // namespace ccsim::proto
