#include "obs/invariants.hpp"

#include "stats/json.hpp"

#include <algorithm>

namespace ccsim::obs {
namespace {

[[nodiscard]] std::string_view state_name(mem::LineState s) noexcept {
  switch (s) {
    case mem::LineState::Invalid: return "Invalid";
    case mem::LineState::Shared: return "Shared";
    case mem::LineState::Modified: return "Modified";
    case mem::LineState::ValidU: return "ValidU";
    case mem::LineState::PrivateDirty: return "PrivateDirty";
  }
  return "?";
}

[[nodiscard]] std::string_view state_name(mem::DirState s) noexcept {
  switch (s) {
    case mem::DirState::Unowned: return "Unowned";
    case mem::DirState::Shared: return "Shared";
    case mem::DirState::Exclusive: return "Exclusive";
    case mem::DirState::Update: return "Update";
    case mem::DirState::Private: return "Private";
  }
  return "?";
}

[[nodiscard]] bool writable(mem::LineState s) noexcept {
  return s == mem::LineState::Modified || s == mem::LineState::PrivateDirty;
}

[[nodiscard]] std::string sharer_list(std::uint64_t mask) {
  std::string s = "{";
  bool first = true;
  for (unsigned n = 0; n < 64; ++n) {
    if (!((mask >> n) & 1u)) continue;
    if (!first) s += ',';
    s += std::to_string(n);
    first = false;
  }
  s += '}';
  return s;
}

} // namespace

void InvariantChecker::record(History& h, std::uint64_t word) {
  if (h.values.size() < history_depth_) {
    // Grow geometrically, but never past the depth.
    if (h.values.size() == h.values.capacity())
      h.values.reserve(
          std::min(history_depth_, std::max<std::size_t>(4, 2 * h.values.size())));
    h.values.push_back(word);
    return;
  }
  h.values[h.head] = word;
  h.head = (h.head + 1) % h.values.size();
}

bool InvariantChecker::known_value(const BlockRecord* r, unsigned w,
                                   std::uint64_t word) const {
  if (!r) return word == 0;  // memory zero-initializes
  // Newest first: a read mostly returns the last value written.
  const History& h = r->history[w];
  for (std::size_t i = h.head; i-- > 0;)
    if (h.values[i] == word) return true;
  for (std::size_t i = h.values.size(); i-- > h.head;)
    if (h.values[i] == word) return true;
  // A history that is not yet full holds every value the word ever had,
  // and the word may still legally read as its initial zero (stale copy
  // of the first fill).
  return h.values.size() < history_depth_ && word == 0;
}

void InvariantChecker::deposit(Addr addr, std::uint64_t word) {
  BlockRecord& r = blocks_[mem::block_of(addr)];
  const unsigned w = mem::word_of(addr);
  r.shadow[w] = word;
  r.written = static_cast<std::uint8_t>(r.written | 1u << w);
  record(r.history[w], word);
}

void InvariantChecker::on_global_write(NodeId, Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  deposit(addr, word);
}

void InvariantChecker::on_local_write(NodeId, Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  record(blocks_[mem::block_of(addr)].history[mem::word_of(addr)], word);
}

void InvariantChecker::on_update_delivered(NodeId dst, Addr addr, NodeId,
                                           Delivery d, std::uint64_t word) {
  // The value is already globally ordered (the home multicast it); record
  // the word image the copy now shows, which can differ transiently from
  // the home's under sub-word write interleavings.
  if (d == Delivery::Applied) on_local_write(dst, addr, word);
}

void InvariantChecker::on_poke(Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  deposit(addr, word);
}

void InvariantChecker::on_read(NodeId reader, Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  ++checks_;
  const BlockRecord* r = blocks_.find(mem::block_of(addr));
  const unsigned w = mem::word_of(addr);
  if (known_value(r, w, word)) return;
  std::string what = "read of a value no write produced\n";
  what += "  word " + stats::hex(mem::word_base(addr)) + " read as " +
          stats::hex(word) + " by node " + std::to_string(reader);
  if (r && (r->written >> w & 1u))
    what += " (last globally-ordered value " + stats::hex(r->shadow[w]) + ")";
  else
    what += " (word never globally written)";
  fail(mem::block_of(addr), what);
}

void InvariantChecker::on_writable(NodeId node, mem::BlockAddr b) {
  ++checks_;
  for (const auto& [n, c] : caches_) {
    if (n == node) continue;
    const mem::CacheLine* l = c->find(b);
    if (l && writable(l->state))
      fail(b, "two writable copies (single-writer violation)\n  node " +
                  std::to_string(node) + " installed a writable copy while node " +
                  std::to_string(n) + " holds " + std::string(state_name(l->state)));
  }
}

void InvariantChecker::holders(mem::BlockAddr b, Holders& out) const {
  out.clear();
  for (const NodeCache& nc : caches_)
    if (const mem::CacheLine* l = nc.cache->find(b)) out.push_back({nc, l->state});
}

std::string InvariantChecker::describe_block(mem::BlockAddr b) const {
  std::string s =
      "  block " + stats::hex(b) + " (base " + stats::hex(mem::block_base(b));
  if (alloc_) {
    if (std::string name = alloc_->name_of(mem::block_base(b)); !name.empty())
      s += ", \"" + name + "\"";
    s += ", home " + std::to_string(alloc_->home_of(b));
  }
  s += ")\n";
  if (homes_) {
    if (const mem::DirEntry* e = homes_->find(b)) {
      s += "  directory: state=";
      s += state_name(e->state);
      s += " owner=";
      s += e->owner == kInvalidNode ? "-" : std::to_string(e->owner);
      s += " sharers=" + sharer_list(e->sharers) + "\n";
    } else {
      s += "  directory: (no entry)\n";
    }
  }
  s += "  caches:";
  Holders hs;
  holders(b, hs);
  if (hs.empty()) s += " (none)";
  for (const Holder& h : hs) {
    s += ' ';
    s += std::to_string(h.node);
    s += ':';
    s += state_name(h.state);
  }
  s += '\n';
  if (const BlockRecord* r = blocks_.find(b); r && !r->recent.empty()) {
    s += "  recent events for block:\n";
    r->recent.for_last(kTraceTail, [&s](const TraceEvent& e) {
      s += "    " + format_event(e) + "\n";
    });
  }
  return s;
}

void InvariantChecker::fail(mem::BlockAddr b, const std::string& what) const {
  throw InvariantViolation("coherence invariant violation: " + what + "\n" +
                           describe_block(b));
}

void InvariantChecker::on_event(const TraceEvent& e) {
  blocks_[mem::block_of(e.addr)].recent.push(e);
}

void InvariantChecker::audit_entry(mem::BlockAddr b, const mem::DirEntry& e,
                                   const Holders& hs) {
  ++checks_;
  std::uint64_t held = 0;
  for (const Holder& h : hs) held |= std::uint64_t{1} << h.node;

  const auto require = [&](bool ok, const char* what) {
    if (!ok)
      fail(b, std::string("directory/cache disagreement at quiescence: ") + what);
  };
  const auto all_in_state = [&](mem::LineState want) {
    return std::all_of(hs.begin(), hs.end(),
                       [&](const Holder& h) { return h.state == want; });
  };

  switch (e.state) {
    case mem::DirState::Unowned:
      require(hs.empty(), "Unowned block still cached somewhere");
      break;
    case mem::DirState::Shared:
      require(all_in_state(mem::LineState::Shared),
              "Shared block cached in a non-Shared state");
      require(held == e.sharers, "sharer set != caches holding the block");
      break;
    case mem::DirState::Exclusive:
      require(e.owner != kInvalidNode, "Exclusive entry with no owner");
      require(held == (std::uint64_t{1} << e.owner) &&
                  all_in_state(mem::LineState::Modified),
              "Exclusive block not held Modified by exactly its owner");
      break;
    case mem::DirState::Update:
      require(all_in_state(mem::LineState::ValidU),
              "Update block cached in a non-ValidU state");
      require(held == e.sharers, "sharer set != caches holding the block");
      break;
    case mem::DirState::Private:
      require(e.owner != kInvalidNode, "Private entry with no owner");
      require(held == (std::uint64_t{1} << e.owner) &&
                  all_in_state(mem::LineState::PrivateDirty),
              "Private block not held PrivateDirty by exactly its owner");
      require(e.sharers == (std::uint64_t{1} << e.owner),
              "Private entry lists sharers beyond its owner");
      break;
  }
}

void InvariantChecker::audit_data(mem::BlockAddr b, const mem::DirEntry& e,
                                  const Holders& hs) {
  const bool dirty = e.state == mem::DirState::Exclusive ||
                     e.state == mem::DirState::Private;
  const BlockRecord* r = blocks_.find(b);
  for (unsigned w = 0; w < mem::kWordsPerBlock; ++w) {
    const Addr wa = mem::block_base(b) + w * mem::kWordSize;
    const std::uint64_t expect = r ? r->shadow[w] : 0;
    ++checks_;
    // `where()` names the copy; it runs only to build a report.
    const auto check = [&](std::uint64_t got, const auto& where) {
      if (got != expect)
        fail(b, "data mismatch at quiescence\n  word " + stats::hex(wa) + " " +
                    where() + " holds " + stats::hex(got) +
                    ", last globally-ordered value " + stats::hex(expect));
    };
    if (dirty) {
      // The owner's cache is the authoritative copy; home memory is stale.
      // audit_entry has established that the owner is the only holder.
      for (const Holder& h : hs)
        check(h.cache->read(wa, mem::kWordSize),
              [&] { return "owner " + std::to_string(h.node) + " cache"; });
    } else {
      check(homes_->read_word(wa, mem::kWordSize),
            [] { return std::string("home memory"); });
      for (const Holder& h : hs) {
        const std::uint64_t got = h.cache->read(wa, mem::kWordSize);
        if (h.state == mem::LineState::ValidU) {
          // A write-through update protocol can legally strand a racing
          // writer's copy at a superseded value: the writer applies its
          // store at issue, the home orders it BEFORE a concurrent write
          // whose update had already left for this node, and the writer is
          // excluded from its own multicast — so nothing ever corrects the
          // copy (MCS qnode flags hit this constantly). Equality with
          // memory is therefore not an invariant for ValidU copies; every
          // word must still be a value some write actually produced.
          if (!known_value(r, w, got))
            fail(b, "data fabrication at quiescence\n  word " + stats::hex(wa) +
                        " node " + std::to_string(h.node) + " cache holds " +
                        stats::hex(got) + ", which no write produced (memory holds " +
                        stats::hex(expect) + ")");
        } else {
          // A clean invalidation-protocol copy has no racing-writer excuse:
          // it was filled from memory and invalidated on every write.
          check(got, [&] { return "node " + std::to_string(h.node) + " cache"; });
        }
      }
    }
  }
}

void InvariantChecker::final_audit() {
  Holders hs;  // refilled for each entry
  homes_->for_each_entry([&](mem::BlockAddr b, const mem::DirEntry& e) {
    holders(b, hs);
    audit_entry(b, e, hs);
    audit_data(b, e, hs);
  });
  // Reverse direction: a valid cache line must be backed by a home entry
  // (the forward pass then audited its state against the entry).
  for (const auto& [n, c] : caches_) {
    for (std::size_t i = 0; i < c->num_sets(); ++i) {
      const mem::CacheLine& l = c->line_at(i);
      if (!l.valid()) continue;
      ++checks_;
      if (!homes_->find(l.block))
        fail(l.block, "cached block with no directory entry at its home\n  node " +
                          std::to_string(n) + " holds " +
                          std::string(state_name(l.state)));
    }
  }
}

} // namespace ccsim::obs
