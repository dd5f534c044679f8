#include "proto/wi_controllers.hpp"

#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;
using mem::DirEntry;
using mem::DirState;

void WiHomeController::begin(const Message& req) {
  const mem::BlockAddr b = mem::block_of(req.addr);
  active_.emplace(b, Active{req, false, false, false});
  dispatch(b);
}

void WiHomeController::close(mem::BlockAddr b) {
  active_.erase(b);
  auto it = queued_.find(b);
  if (it == queued_.end() || it->second.empty()) {
    if (it != queued_.end()) queued_.erase(it);
    return;
  }
  Message next = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) queued_.erase(it);
  begin(next);
}

void WiHomeController::restart(mem::BlockAddr b) {
  auto it = active_.find(b);
  CCSIM_CHECK(it != active_.end(),
              "home=%u block=%#llx cycle=%llu: restart of a transaction that "
              "is not active",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(ctx_.q.now()));
  it->second.awaiting_remote = false;
  it->second.wb_processed = false;
  it->second.waiting_wb = false;
  dispatch(b);
}

void WiHomeController::serve_gets(mem::BlockAddr b, const Message& req) {
  DirEntry& e = dir_.entry(b);
  if (e.state == DirState::Exclusive && e.owner == req.src) {
    // The requester evicted its dirty copy and re-missed before the
    // writeback reached us; absorb the writeback first.
    active_[b].waiting_wb = true;
    return;
  }
  if (e.state == DirState::Exclusive) {
    // Dirty at a remote cache: DASH-style forward; the transaction stays
    // open until the owner's SharedWB (or FwdNack) comes back.
    active_[b].awaiting_remote = true;
    Message f;
    f.type = MsgType::FwdGetS;
    f.dst = e.owner;
    f.addr = req.addr;
    f.requester = req.src;
    send_from(f);
    return;
  }
  const Cycle ready = memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockRead);
  Message d;
  d.type = MsgType::DataS;
  d.dst = req.src;
  d.addr = req.addr;
  d.has_block = true;
  d.block = memory_.read_block(b);
  e.state = DirState::Shared;
  e.add_sharer(req.src);
  ctx_.q.schedule_at(ready, [this, d, b]() mutable {
    // Read memory at send time: a write absorbed between dispatch and the
    // bank completing must be reflected in the data (the requester is
    // already in the sharer set, so later updates/invals assume it is).
    d.block = memory_.read_block(b);
    send_from(d);
  });
  close(b);
}

void WiHomeController::serve_getx(mem::BlockAddr b, const Message& req) {
  DirEntry& e = dir_.entry(b);
  if (e.state == DirState::Exclusive && e.owner == req.src) {
    // Writeback from the requester itself is still in flight (see
    // serve_gets); replay this request after absorbing it.
    active_[b].waiting_wb = true;
    return;
  }
  if (e.state == DirState::Exclusive) {
    active_[b].awaiting_remote = true;
    Message f;
    f.type = MsgType::FwdGetX;
    f.dst = e.owner;
    f.addr = req.addr;
    f.requester = req.src;
    send_from(f);
    return;
  }

  // Invalidate every other sharer; acks flow directly to the requester.
  unsigned acks = 0;
  if (e.state == DirState::Shared) {
    for (NodeId s = 0; s < ctx_.nprocs; ++s) {
      if (s == req.src || !e.has_sharer(s)) continue;
      Message inv;
      inv.type = MsgType::Inval;
      inv.dst = s;
      inv.addr = req.addr;  // carries the triggering word for classification
      inv.requester = req.src;
      send_from(inv);
      for (obs::Observer* o : ctx_.observers) o->on_inval_sent(s, req.addr, req.src);
      ++acks;
    }
  }
  const Cycle ready = memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockRead);
  Message d;
  d.type = MsgType::DataX;
  d.dst = req.src;
  d.addr = req.addr;
  d.payload = acks;
  d.has_block = true;
  d.block = memory_.read_block(b);
  e.state = DirState::Exclusive;
  e.sharers = 0;
  e.owner = req.src;
  ctx_.q.schedule_at(ready, [this, d, b]() mutable {
    // Read memory at send time: a write absorbed between dispatch and the
    // bank completing must be reflected in the data (the requester is
    // already in the sharer set, so later updates/invals assume it is).
    d.block = memory_.read_block(b);
    send_from(d);
  });
  // The transaction closes on the requester's ExclDone: a later request
  // must never be forwarded to an owner that has not received its data.
}

void WiHomeController::dispatch(mem::BlockAddr b) {
  const Message req = active_.at(b).req;
  DirEntry& e = dir_.entry(b);
  switch (req.type) {
    case MsgType::GetS:
      serve_gets(b, req);
      break;
    case MsgType::GetX:
      serve_getx(b, req);
      break;
    case MsgType::Upgrade:
      if (e.state == DirState::Shared && e.has_sharer(req.src)) {
        unsigned acks = 0;
        for (NodeId s = 0; s < ctx_.nprocs; ++s) {
          if (s == req.src || !e.has_sharer(s)) continue;
          Message inv;
          inv.type = MsgType::Inval;
          inv.dst = s;
          inv.addr = req.addr;
          inv.requester = req.src;
          send_from(inv);
          for (obs::Observer* o : ctx_.observers) o->on_inval_sent(s, req.addr, req.src);
          ++acks;
        }
        const Cycle ready =
            memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
        Message g;
        g.type = MsgType::UpgAck;
        g.dst = req.src;
        g.addr = req.addr;
        g.payload = acks;
        e.state = DirState::Exclusive;
        e.sharers = 0;
        e.owner = req.src;
        ctx_.q.schedule_at(ready, [this, g] { send_from(g); });
        // Closed by the requester's ExclDone (see serve_getx).
      } else {
        // The requester's copy was invalidated while the Upgrade was in
        // flight: serve data as if this were a GetX.
        serve_getx(b, req);
      }
      break;
    default:
      CCSIM_CHECK(false,
                  "home=%u block=%#llx cycle=%llu: unexpected active request "
                  "type %s",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(req.type)).c_str());
  }
}

void WiHomeController::on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  if (ctx_.trace)
    ctx_.trace->event(
        obs::recv_event(obs::TraceCat::Home, ctx_.q.now(), id_, msg));
  switch (msg.type) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::Upgrade:
      for (obs::Observer* o : ctx_.observers) o->on_home_txn(b);
      if (active_.contains(b))
        queued_[b].push_back(msg);
      else
        begin(msg);
      break;

    case MsgType::SharedWB: {
      memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
      memory_.write_block(b, msg.block);
      DirEntry& e = dir_.entry(b);
      e.state = DirState::Shared;
      e.sharers = 0;
      e.owner = kInvalidNode;
      e.add_sharer(msg.src);        // demoted owner keeps a shared copy
      e.add_sharer(msg.requester);  // the read requester got data directly
      close(b);
      break;
    }

    case MsgType::ExclDone: {
      memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
      DirEntry& e = dir_.entry(b);
      e.state = DirState::Exclusive;
      e.sharers = 0;
      e.owner = msg.src;
      close(b);
      break;
    }

    case MsgType::FwdNack: {
      // The owner no longer holds the block; its writeback is (or was)
      // in flight. Replay once the writeback has been absorbed.
      auto it = active_.find(b);
      CCSIM_CHECK(it != active_.end(),
                  "home=%u block=%#llx cycle=%llu: FwdNack with no active "
                  "transaction",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      if (it->second.wb_processed)
        restart(b);
      else
        it->second.waiting_wb = true;
      break;
    }

    case MsgType::Writeback: {
      memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
      memory_.write_block(b, msg.block);
      DirEntry& e = dir_.entry(b);
      if ((e.state == DirState::Exclusive || e.state == DirState::Private) &&
          e.owner == msg.src) {
        e.state = DirState::Unowned;
        e.sharers = 0;
        e.owner = kInvalidNode;
      }
      {
        Message ack;
        ack.type = MsgType::WritebackAck;
        ack.dst = msg.src;
        ack.addr = mem::block_base(b);
        send_from(ack);
      }
      if (auto it = active_.find(b); it != active_.end()) {
        it->second.wb_processed = true;
        if (it->second.waiting_wb) restart(b);
      }
      break;
    }

    case MsgType::ReplHint: {
      memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
      DirEntry& e = dir_.entry(b);
      e.remove_sharer(msg.src);
      if (e.state == DirState::Shared && e.sharers == 0) e.state = DirState::Unowned;
      break;
    }

    default:
      CCSIM_CHECK(false,
                  "home=%u block=%#llx cycle=%llu: unexpected %s at WI home "
                  "controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

} // namespace ccsim::proto
