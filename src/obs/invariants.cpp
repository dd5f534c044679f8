#include "obs/invariants.hpp"

#include <algorithm>
#include <cstdio>

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

[[nodiscard]] std::string hexs(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
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

void InvariantChecker::attach_node(mem::DataCache* cache,
                                   const mem::Directory* dir,
                                   mem::MemoryModule* memory) {
  nodes_.push_back(NodeView{cache, dir, memory});
}

void InvariantChecker::record(Addr word_addr, std::uint64_t word) {
  History& h = history_[word_addr];
  if (h.values.empty()) h.values.resize(history_depth_, 0);
  h.values[h.head] = word;
  h.head = (h.head + 1) % h.values.size();
  if (h.head == 0) h.wrapped = true;
}

bool InvariantChecker::known_value(Addr word_addr, std::uint64_t word) const {
  auto it = history_.find(word_addr);
  if (it == history_.end()) return word == 0;  // memory zero-initializes
  const History& h = it->second;
  const std::size_t n = h.wrapped ? h.values.size() : h.head;
  for (std::size_t i = 0; i < n; ++i)
    if (h.values[i] == word) return true;
  // A word that has been written but not often enough to wrap the history
  // may still legally read as its initial zero (stale copy of the first
  // fill).
  return !h.wrapped && word == 0;
}

void InvariantChecker::on_global_write(NodeId, Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  shadow_[mem::word_base(addr)] = word;
  record(mem::word_base(addr), word);
}

void InvariantChecker::on_local_write(NodeId, Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  record(mem::word_base(addr), word);
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
  shadow_[mem::word_base(addr)] = word;
  record(mem::word_base(addr), word);
}

void InvariantChecker::on_read(NodeId reader, Addr addr, std::uint64_t word) {
  if (!mem::is_shared(addr)) return;
  ++checks_;
  const Addr wa = mem::word_base(addr);
  if (known_value(wa, word)) return;
  std::string what = "read of a value no write produced\n";
  what += "  word " + hexs(wa) + " read as " + hexs(word) + " by node " +
          std::to_string(reader);
  if (auto it = shadow_.find(wa); it != shadow_.end())
    what += " (last globally-ordered value " + hexs(it->second) + ")";
  else
    what += " (word never globally written)";
  fail(mem::block_of(addr), what);
}

void InvariantChecker::on_writable(NodeId node, mem::BlockAddr b) {
  ++checks_;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (n == node) continue;
    const mem::CacheLine* l = nodes_[n].cache->find(b);
    if (l && writable(l->state))
      fail(b, "two writable copies (single-writer violation)\n  node " +
                  std::to_string(node) + " installed a writable copy while node " +
                  std::to_string(n) + " holds " + std::string(state_name(l->state)));
  }
}

std::vector<std::pair<NodeId, mem::LineState>> InvariantChecker::holders(
    mem::BlockAddr b) const {
  std::vector<std::pair<NodeId, mem::LineState>> out;
  for (NodeId n = 0; n < nodes_.size(); ++n)
    if (const mem::CacheLine* l = nodes_[n].cache->find(b))
      out.emplace_back(n, l->state);
  return out;
}

std::string InvariantChecker::describe_block(mem::BlockAddr b) const {
  std::string s = "  block " + hexs(b) + " (base " + hexs(mem::block_base(b));
  NodeId home = kInvalidNode;
  if (alloc_) {
    if (std::string name = alloc_->name_of(mem::block_base(b)); !name.empty())
      s += ", \"" + name + "\"";
    home = alloc_->home_of(b);
    s += ", home " + std::to_string(home);
  }
  s += ")\n";
  if (home != kInvalidNode && home < nodes_.size()) {
    if (const mem::DirEntry* e = nodes_[home].dir->find(b)) {
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
  const auto hs = holders(b);
  if (hs.empty()) s += " (none)";
  for (const auto& [n, st] : hs) {
    s += ' ';
    s += std::to_string(n);
    s += ':';
    s += state_name(st);
  }
  s += '\n';
  if (auto it = recent_.find(b); it != recent_.end()) {
    s += "  recent events for block:\n";
    it->second.for_last(kTraceTail, [&s](const TraceEvent& e) {
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
  recent_[mem::block_of(e.addr)].push(e);
}

void InvariantChecker::audit_entry(NodeId home, mem::BlockAddr b,
                                   const mem::DirEntry& e) {
  (void)home;
  ++checks_;
  const auto hs = holders(b);
  std::uint64_t held = 0;
  for (const auto& [n, st] : hs) held |= std::uint64_t{1} << n;

  const auto require = [&](bool ok, const char* what) {
    if (!ok)
      fail(b, std::string("directory/cache disagreement at quiescence: ") + what);
  };
  const auto all_in_state = [&](mem::LineState want) {
    return std::all_of(hs.begin(), hs.end(),
                       [&](const auto& p) { return p.second == want; });
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

void InvariantChecker::audit_data(NodeId home, mem::BlockAddr b,
                                  const mem::DirEntry& e) {
  const bool dirty = e.state == mem::DirState::Exclusive ||
                     e.state == mem::DirState::Private;
  for (unsigned w = 0; w < mem::kWordsPerBlock; ++w) {
    const Addr wa = mem::block_base(b) + w * mem::kWordSize;
    std::uint64_t expect = 0;
    if (auto it = shadow_.find(wa); it != shadow_.end()) expect = it->second;
    ++checks_;
    const auto check = [&](std::uint64_t got, const std::string& where) {
      if (got != expect)
        fail(b, "data mismatch at quiescence\n  word " + hexs(wa) + " " +
                    where + " holds " + hexs(got) +
                    ", last globally-ordered value " + hexs(expect));
    };
    if (dirty) {
      // The owner's cache is the authoritative copy; home memory is stale.
      if (e.owner != kInvalidNode && nodes_[e.owner].cache->find(b))
        check(nodes_[e.owner].cache->read(wa, mem::kWordSize),
              "owner " + std::to_string(e.owner) + " cache");
    } else {
      check(nodes_[home].memory->read_word(wa, mem::kWordSize), "home memory");
      for (const auto& [n, st] : holders(b)) {
        const std::uint64_t got = nodes_[n].cache->read(wa, mem::kWordSize);
        if (st == mem::LineState::ValidU) {
          // A write-through update protocol can legally strand a racing
          // writer's copy at a superseded value: the writer applies its
          // store at issue, the home orders it BEFORE a concurrent write
          // whose update had already left for this node, and the writer is
          // excluded from its own multicast — so nothing ever corrects the
          // copy (MCS qnode flags hit this constantly). Equality with
          // memory is therefore not an invariant for ValidU copies; every
          // word must still be a value some write actually produced.
          if (!known_value(wa, got))
            fail(b, "data fabrication at quiescence\n  word " + hexs(wa) +
                        " node " + std::to_string(n) + " cache holds " +
                        hexs(got) + ", which no write produced (memory holds " +
                        hexs(expect) + ")");
        } else {
          // A clean invalidation-protocol copy has no racing-writer excuse:
          // it was filled from memory and invalidated on every write.
          check(got, "node " + std::to_string(n) + " cache");
        }
      }
    }
  }
}

void InvariantChecker::final_audit() {
  for (NodeId h = 0; h < nodes_.size(); ++h) {
    for (const auto& [b, e] : nodes_[h].dir->entries()) {
      audit_entry(h, b, e);
      audit_data(h, b, e);
    }
  }
  // Reverse direction: a valid cache line must be backed by a home entry
  // (the forward pass then audited its state against the entry).
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const mem::DataCache& c = *nodes_[n].cache;
    for (std::size_t i = 0; i < c.num_sets(); ++i) {
      const mem::CacheLine& l = c.line_at(i);
      if (!l.valid()) continue;
      ++checks_;
      if (!alloc_) continue;
      const NodeId home = alloc_->home_of(l.block);
      if (home >= nodes_.size() || !nodes_[home].dir->find(l.block))
        fail(l.block, "cached block with no directory entry at its home\n  node " +
                          std::to_string(n) + " holds " +
                          std::string(state_name(l.state)));
    }
  }
}

} // namespace ccsim::obs
