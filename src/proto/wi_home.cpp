#include "proto/wi_controllers.hpp"

#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;
using mem::DirEntry;
using mem::DirState;

unsigned WiHomeController::invalidate_sharers(const DirEntry& e, const Message& req) {
  Message inv;
  inv.type = MsgType::Inval;
  inv.addr = req.addr;  // carries the triggering word for classification
  inv.requester = req.src;
  return multicast(e, inv, req.src);
}

void WiHomeController::serve_gets(mem::BlockAddr b, const Message& req) {
  DirEntry& e = ctx_.homes.entry(b);
  if (e.state == DirState::Exclusive && e.owner == req.src) {
    // The requester evicted its dirty copy and re-missed before the
    // writeback reached us; absorb the writeback first.
    hold(req).waiting_wb = true;
    return;
  }
  if (e.state == DirState::Exclusive) {
    // Dirty at a remote cache: DASH-style forward; the transaction stays
    // open until the owner's SharedWB (or FwdNack) comes back.
    hold(req);
    Message f;
    f.type = MsgType::FwdGetS;
    f.dst = e.owner;
    f.addr = req.addr;
    f.requester = req.src;
    send_from(f);
    return;
  }
  const Cycle ready = bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockRead);
  Message d;
  d.type = MsgType::DataS;
  d.dst = req.src;
  d.addr = req.addr;
  d.has_block = true;
  e.state = DirState::Shared;
  e.add_sharer(req.src);
  reply_at(ready, d);
}

void WiHomeController::serve_getx(mem::BlockAddr b, const Message& req) {
  DirEntry& e = ctx_.homes.entry(b);
  if (e.state == DirState::Exclusive && e.owner == req.src) {
    // Writeback from the requester itself is still in flight (see
    // serve_gets); replay this request after absorbing it.
    hold(req).waiting_wb = true;
    return;
  }
  if (e.state == DirState::Exclusive) {
    hold(req);
    Message f;
    f.type = MsgType::FwdGetX;
    f.dst = e.owner;
    f.addr = req.addr;
    f.requester = req.src;
    send_from(f);
    return;
  }

  // Invalidate every other sharer; acks flow directly to the requester.
  const unsigned acks = e.state == DirState::Shared ? invalidate_sharers(e, req) : 0;
  const Cycle ready = bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockRead);
  Message d;
  d.type = MsgType::DataX;
  d.dst = req.src;
  d.addr = req.addr;
  d.payload = acks;
  d.has_block = true;
  e.state = DirState::Exclusive;
  e.sharers = 0;
  e.owner = req.src;
  reply_at(ready, d);
  // The transaction closes on the requester's ExclDone: a later request
  // must never be forwarded to an owner that has not received its data.
  hold(req);
}

void WiHomeController::serve(const Message& req) {
  const mem::BlockAddr b = mem::block_of(req.addr);
  switch (req.type) {
    case MsgType::GetS:
      serve_gets(b, req);
      break;
    case MsgType::GetX:
      serve_getx(b, req);
      break;
    case MsgType::Upgrade: {
      DirEntry& e = ctx_.homes.entry(b);
      if (e.state == DirState::Shared && e.has_sharer(req.src)) {
        const unsigned acks = invalidate_sharers(e, req);
        const Cycle ready =
            bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
        Message g;
        g.type = MsgType::UpgAck;
        g.dst = req.src;
        g.addr = req.addr;
        g.payload = acks;
        e.state = DirState::Exclusive;
        e.sharers = 0;
        e.owner = req.src;
        reply_at(ready, g);
        hold(req);  // closed by the requester's ExclDone (see serve_getx)
      } else {
        // The requester's copy was invalidated while the Upgrade was in
        // flight: serve data as if this were a GetX.
        serve_getx(b, req);
      }
      break;
    }
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
  ctx_.trace_recv(obs::TraceCat::Home, id_, msg);
  switch (msg.type) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::Upgrade:
      admit(msg);
      break;

    case MsgType::SharedWB: {
      bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
      ctx_.homes.write_block(b, msg.block);
      DirEntry& e = ctx_.homes.entry(b);
      e.state = DirState::Shared;
      e.sharers = 0;
      e.owner = kInvalidNode;
      e.add_sharer(msg.src);        // demoted owner keeps a shared copy
      e.add_sharer(msg.requester);  // the read requester got data directly
      close(b);
      break;
    }

    case MsgType::ExclDone: {
      bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
      DirEntry& e = ctx_.homes.entry(b);
      e.state = DirState::Exclusive;
      e.sharers = 0;
      e.owner = msg.src;
      close(b);
      break;
    }

    case MsgType::FwdNack: {
      // The owner no longer holds the block; its writeback is (or was)
      // in flight. Replay once the writeback has been absorbed.
      Hold* h = held(b);
      CCSIM_CHECK(h != nullptr,
                  "home=%u block=%#llx cycle=%llu: FwdNack with no active "
                  "transaction",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      if (h->wb_processed)
        replay(b);
      else
        h->waiting_wb = true;
      break;
    }

    case MsgType::Writeback: {
      DirEntry& e = ctx_.homes.entry(b);
      if ((e.state == DirState::Exclusive || e.state == DirState::Private) &&
          e.owner == msg.src) {
        e.state = DirState::Unowned;
        e.sharers = 0;
        e.owner = kInvalidNode;
      }
      absorb_writeback(msg);
      break;
    }

    case MsgType::ReplHint: {
      bank_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
      DirEntry& e = ctx_.homes.entry(b);
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
