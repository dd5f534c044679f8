#include "obs/sharing.hpp"

#include "mem/shared_alloc.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace ccsim::obs {

std::string_view to_string(SharingPattern p) noexcept {
  switch (p) {
    case SharingPattern::Private: return "private";
    case SharingPattern::ReadOnly: return "read-only";
    case SharingPattern::ReadMostly: return "read-mostly";
    case SharingPattern::Migratory: return "migratory";
    case SharingPattern::ProducerConsumer: return "producer-consumer";
    case SharingPattern::WidelyShared: return "widely-shared";
    case SharingPattern::FalseShared: return "false-shared";
    case SharingPattern::Mixed: return "mixed";
  }
  return "?";
}

proto::Protocol cheapest_protocol(double wi, double pu, double cu) noexcept {
  proto::Protocol best = proto::Protocol::WI;
  double c = wi;
  if (pu < c) {
    best = proto::Protocol::PU;
    c = pu;
  }
  if (cu < c) best = proto::Protocol::CU;
  return best;
}

double SharingReport::total_cost(proto::Protocol p) const noexcept {
  switch (p) {
    case proto::Protocol::WI: return total_wi;
    case proto::Protocol::PU: return total_pu;
    case proto::Protocol::CU: return total_cu;
    case proto::Protocol::Hybrid: break;
  }
  return 0.0;
}

SharingTracker::SharingTracker(unsigned nprocs, unsigned cu_threshold,
                               SharingConfig cfg)
    : nprocs_(nprocs), cu_threshold_(cu_threshold), cfg_(cfg) {
  if (nprocs == 0 || nprocs > mem::kMaxNodes)
    throw std::invalid_argument("SharingTracker: nprocs must be in [1, " +
                                std::to_string(mem::kMaxNodes) +
                                "] (64-bit accessor sets)");
}

void SharingTracker::on_read(NodeId reader, Addr a, std::uint64_t) {
  if (!mem::is_shared(a)) return;
  BlockStats& s = blocks_[mem::block_of(a)];
  const NodeSet bit = NodeSet{1} << reader;
  const unsigned w = mem::word_of(a);
  s.readers |= bit;
  s.word_readers[w] |= bit;
  s.cur_readers |= bit;
  s.pending_unread[w] &= ~bit;  // the delivered update was useful after all
  ++s.reads;
  // CU replay: a read resets the node's competitive counter; a read on a
  // copy whose counter already tripped is the re-fetch CU pays for.
  if ((s.copies & bit) == 0) {
    s.copies |= bit;
  } else if ((s.cu_live & bit) == 0) {
    ++s.cu_refetches;
  }
  s.cu_live |= bit;
  s.cu_streak[reader] = 0;
}

void SharingTracker::close_interval(BlockStats& s, NodeId next_writer) {
  ++s.intervals;
  const auto n = static_cast<std::uint64_t>(std::popcount(s.cur_readers));
  s.reader_episodes += n;
  s.max_interval_readers = std::max(s.max_interval_readers, n);
  if (n != 0) ++s.intervals_with_readers;
  if (next_writer != s.last_writer) {
    ++s.handoffs;
    if (next_writer != kInvalidNode &&
        ((s.cur_readers | s.prev_readers) & (NodeSet{1} << next_writer)) != 0)
      ++s.migratory_handoffs;
    ++s.runs;
    s.max_run = std::max(s.max_run, s.run_len);
    s.run_len = 0;
  }
}

void SharingTracker::on_global_write(NodeId writer, Addr a, std::uint64_t) {
  if (!mem::is_shared(a)) return;
  BlockStats& s = blocks_[mem::block_of(a)];
  const NodeSet bit = NodeSet{1} << writer;
  if (s.writes != 0) close_interval(s, writer);
  s.prev_readers = s.cur_readers;
  s.cur_readers = 0;
  s.last_writer = writer;
  ++s.run_len;
  s.writers |= bit;
  s.word_writers[mem::word_of(a)] |= bit;
  ++s.writes;
  s.sharers_at_write +=
      static_cast<std::uint64_t>(std::popcount((s.readers | s.writers) & ~bit));
  // PU replay: the write is multicast to every other node that ever held a
  // copy. CU replay: only copies whose counter has not tripped receive it;
  // `threshold` consecutive unread updates trip the counter (reads reset
  // it in on_read, so the streaks already reflect reads since the previous
  // write).
  s.pu_updates += static_cast<std::uint64_t>(std::popcount(s.copies & ~bit));
  const std::uint8_t t =
      cu_threshold_ != 0
          ? static_cast<std::uint8_t>(std::min(cu_threshold_, 255u))
          : std::uint8_t{4};
  NodeSet targets = s.cu_live & ~bit;
  while (targets != 0) {
    const unsigned n = static_cast<unsigned>(std::countr_zero(targets));
    targets &= targets - 1;
    ++s.cu_updates;
    if (++s.cu_streak[n] >= t) s.cu_live &= ~(NodeSet{1} << n);
  }
  s.copies |= bit;
  s.cu_live |= bit;
  s.cu_streak[writer] = 0;
}

void SharingTracker::on_local_write(NodeId writer, Addr a, std::uint64_t) {
  // The matching global-order point fires on_global_write at the home; here
  // only the accessor bitmaps learn about the writer (idempotent).
  if (!mem::is_shared(a)) return;
  BlockStats& s = blocks_[mem::block_of(a)];
  const NodeSet bit = NodeSet{1} << writer;
  s.writers |= bit;
  s.word_writers[mem::word_of(a)] |= bit;
  // The writer's own copy is fresh by definition.
  s.copies |= bit;
  s.cu_live |= bit;
  s.cu_streak[writer] = 0;
}

void SharingTracker::on_writable(NodeId, mem::BlockAddr b) {
  ++blocks_[b].writable_grants;
}

void SharingTracker::on_inval_sent(NodeId, Addr trigger, NodeId) {
  ++blocks_[mem::block_of(trigger)].invals_sent;
}

void SharingTracker::on_update_delivered(NodeId dst, Addr a, NodeId, Delivery d,
                                         std::uint64_t) {
  BlockStats& s = blocks_[mem::block_of(a)];
  const NodeSet bit = NodeSet{1} << dst;
  const unsigned w = mem::word_of(a);
  ++s.updates_delivered;
  switch (d) {
    case Delivery::Applied:
      // A still-pending bit means the previous delivery to this cache was
      // overwritten before anyone read it: wasted.
      if ((s.pending_unread[w] & bit) != 0) ++s.updates_wasted;
      s.pending_unread[w] |= bit;
      break;
    case Delivery::Stale:
      ++s.updates_wasted;
      break;
    case Delivery::Dropped:
      ++s.updates_dropped;
      break;
  }
}

void SharingTracker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (auto& [b, s] : blocks_) {
    (void)b;
    if (s.writes != 0) {
      close_interval(s, kInvalidNode);
      if (s.run_len != 0) {
        ++s.runs;
        s.max_run = std::max(s.max_run, s.run_len);
        s.run_len = 0;
      }
    }
    for (unsigned w = 0; w < mem::kWordsPerBlock; ++w) {
      s.updates_wasted +=
          static_cast<std::uint64_t>(std::popcount(s.pending_unread[w]));
      s.pending_unread[w] = 0;
    }
  }
}

SharingPattern SharingTracker::classify(const BlockStats& s) const {
  const NodeSet acc = s.readers | s.writers;
  if (std::popcount(acc) <= 1) return SharingPattern::Private;
  if (s.writes == 0) return SharingPattern::ReadOnly;

  bool word_multi = false;
  NodeSet word_owners = 0;
  for (unsigned w = 0; w < mem::kWordsPerBlock; ++w) {
    const NodeSet wa = s.word_readers[w] | s.word_writers[w];
    if (wa == 0) continue;
    if (std::popcount(wa) > 1) word_multi = true;
    word_owners |= wa;
  }
  if (!word_multi && std::popcount(word_owners) >= 2)
    return SharingPattern::FalseShared;

  if (s.readers != 0 && (s.writers & s.readers) == 0)
    return SharingPattern::ProducerConsumer;

  const double avg_r = s.intervals != 0
                           ? static_cast<double>(s.reader_episodes) /
                                 static_cast<double>(s.intervals)
                           : 0.0;
  if (std::popcount(s.writers) >= 2 && s.handoffs != 0 &&
      2 * s.migratory_handoffs >= s.handoffs &&
      avg_r <= cfg_.migratory_readers_max)
    return SharingPattern::Migratory;
  // Read-mostly outranks widely-shared: a block with rare writes is
  // read-mostly however many nodes read it. Raw reads (not episodes)
  // carry the signal -- episodes are capped at nprocs per interval, so an
  // episode ratio above `widely_avg_readers` would always have triggered
  // the widely-shared test instead.
  if (static_cast<double>(s.reads) >=
      cfg_.read_mostly_ratio * static_cast<double>(s.writes))
    return SharingPattern::ReadMostly;
  if (avg_r >= cfg_.widely_avg_readers ||
      s.max_interval_readers >=
          std::max<std::uint64_t>(cfg_.widely_min_readers, nprocs_ / 2))
    return SharingPattern::WidelyShared;
  return SharingPattern::Mixed;
}

void SharingTracker::project(const BlockStats& s, double& wi, double& pu,
                             double& cu) const {
  const SharingCostParams& c = cfg_.cost;
  const int accessors = std::popcount(s.readers | s.writers);
  const double w = static_cast<double>(s.writes);
  const double r = static_cast<double>(s.reader_episodes);

  if (accessors <= 1) {
    // One node: WI writes locally after one ownership acquisition; PU pays
    // one write-through before the private-block grant; CU (no private
    // mode) writes through forever.
    wi = (s.writes != 0 ? c.write_acq : 0.0) + w * c.local_write;
    pu = (s.writes != 0 ? c.write_through : 0.0) + w * c.local_write;
    cu = w * c.write_through;
    return;
  }

  // WI: a write pays the exclusive acquisition when ownership moves (a new
  // run) or when readers demoted the owner since the last write; same-owner
  // writes inside an undisturbed run are free. The two conditions overlap
  // heavily in practice (a reader episode usually precedes the handoff), so
  // charging their max rather than their sum avoids double-billing one
  // acquisition. Each reader episode then re-fetches the block; the
  // invalidation fan-out itself rides inside `write_acq`.
  wi = static_cast<double>(std::max(s.runs, s.intervals_with_readers)) *
           c.write_acq +
       r * c.read_miss;

  // PU: each write goes through the home and is multicast to every other
  // node holding a copy (the replayed multicast set).
  pu = w * c.write_through + static_cast<double>(s.pu_updates) * c.update;

  // CU: the replayed competitive counter says exactly which of those
  // deliveries survive the threshold and how many re-fetches the drops
  // cost (see SharingCostParams for why `cu_update` and `refetch` are
  // dearer than their PU/WI counterparts).
  cu = w * c.write_through +
       static_cast<double>(s.cu_updates) * c.cu_update +
       static_cast<double>(s.cu_refetches) * c.refetch;
}

SharingReport SharingTracker::report(const mem::SharedAllocator* alloc) const {
  SharingReport r;
  r.on = true;
  r.nprocs = nprocs_;
  r.cu_threshold = cu_threshold_;
  r.blocks.reserve(blocks_.size());

  for (const auto& [b, s] : blocks_) {
    SharingReport::Row row;
    row.block = b;
    row.base = mem::block_base(b);
    if (alloc) row.name = alloc->name_of(row.base);
    row.accessors = static_cast<unsigned>(std::popcount(s.readers | s.writers));
    row.reader_count = static_cast<unsigned>(std::popcount(s.readers));
    row.writer_count = static_cast<unsigned>(std::popcount(s.writers));
    row.reads = s.reads;
    row.writes = s.writes;
    row.intervals = s.intervals;
    row.reader_episodes = s.reader_episodes;
    row.max_interval_readers = s.max_interval_readers;
    row.runs = s.runs;
    row.max_run = s.max_run;
    row.handoffs = s.handoffs;
    row.migratory_handoffs = s.migratory_handoffs;
    row.invals_sent = s.invals_sent;
    row.writable_grants = s.writable_grants;
    row.updates_delivered = s.updates_delivered;
    row.updates_wasted = s.updates_wasted;
    row.updates_dropped = s.updates_dropped;
    row.pu_updates = s.pu_updates;
    row.cu_updates = s.cu_updates;
    row.cu_refetches = s.cu_refetches;
    bool word_multi = false;
    for (unsigned w = 0; w < mem::kWordsPerBlock; ++w)
      if (std::popcount(s.word_readers[w] | s.word_writers[w]) > 1)
        word_multi = true;
    row.word_disjoint = !word_multi && row.accessors >= 2;
    row.pattern = classify(s);
    project(s, row.cost_wi, row.cost_pu, row.cost_cu);
    row.best = cheapest_protocol(row.cost_wi, row.cost_pu, row.cost_cu);

    r.total_wi += row.cost_wi;
    r.total_pu += row.cost_pu;
    r.total_cu += row.cost_cu;
    ++r.pattern_blocks[static_cast<std::size_t>(row.pattern)];
    r.blocks.push_back(std::move(row));
  }

  std::sort(r.blocks.begin(), r.blocks.end(),
            [](const SharingReport::Row& a, const SharingReport::Row& b) {
              if (a.activity() != b.activity()) return a.activity() > b.activity();
              return a.block < b.block;
            });

  // Aggregate per symbolic allocation: "barrier.sense+0x18" -> "barrier.sense".
  struct Agg {
    SharingReport::Alloc alloc;
    std::array<std::uint64_t, kSharingPatterns> activity_by_pattern{};
  };
  std::map<std::string, Agg> by_name;
  for (const SharingReport::Row& row : r.blocks) {
    std::string name = row.name.substr(0, row.name.find('+'));
    if (name.empty()) name = "(unnamed)";
    Agg& g = by_name[name];
    g.alloc.name = name;
    ++g.alloc.blocks;
    g.alloc.reads += row.reads;
    g.alloc.writes += row.writes;
    g.alloc.invals_sent += row.invals_sent;
    g.alloc.updates_wasted += row.updates_wasted;
    g.alloc.cost_wi += row.cost_wi;
    g.alloc.cost_pu += row.cost_pu;
    g.alloc.cost_cu += row.cost_cu;
    g.activity_by_pattern[static_cast<std::size_t>(row.pattern)] +=
        row.activity() + 1;  // +1 so zero-traffic blocks still vote
  }
  r.allocs.reserve(by_name.size());
  for (auto& [name, g] : by_name) {
    (void)name;
    std::size_t dominant = 0;
    for (std::size_t i = 1; i < kSharingPatterns; ++i)
      if (g.activity_by_pattern[i] > g.activity_by_pattern[dominant])
        dominant = i;
    g.alloc.pattern = static_cast<SharingPattern>(dominant);
    g.alloc.best =
        cheapest_protocol(g.alloc.cost_wi, g.alloc.cost_pu, g.alloc.cost_cu);
    r.allocs.push_back(std::move(g.alloc));
  }
  std::sort(r.allocs.begin(), r.allocs.end(),
            [](const SharingReport::Alloc& a, const SharingReport::Alloc& b) {
              const std::uint64_t aa = a.reads + a.writes;
              const std::uint64_t bb = b.reads + b.writes;
              if (aa != bb) return aa > bb;
              return a.name < b.name;
            });

  r.recommended = cheapest_protocol(r.total_wi, r.total_pu, r.total_cu);
  return r;
}

} // namespace ccsim::obs
