// Runtime coherence-invariant checker: SWMR, directory/cache agreement,
// and shadow-memory data values.
//
// The checker is an opt-in obs::Observer (MachineConfig::obs.check_invariants),
// subscribed first, that the protocol engines notify synchronously at their
// transition points. It schedules no events and books no bank or port time,
// so a run with the checker enabled produces exactly the same simulated
// cycle counts as one without -- it can only throw.
//
// What is checked, and why exactly this set:
//
//  - Single writer (continuous). Whenever a cache installs a writable copy
//    (WI Modified, PU PrivateDirty) the checker asserts no other cache
//    holds a writable copy of the same block. Note the classic textbook
//    form -- "one writer OR n readers" -- is deliberately NOT asserted
//    instantaneously: under release consistency a WI home grants an
//    upgrade while its invalidations are still in flight, so a Modified
//    copy legitimately coexists with stale Shared copies for a bounded
//    window. Two *writable* copies are never legal at any instant, under
//    any of the paper's protocols.
//
//  - Value integrity (continuous). Every globally-ordered write deposits
//    the resulting word into a shadow memory and a bounded per-word value
//    history; locally-visible-but-not-yet-ordered writes (an update
//    protocol's write-through into its own cache) go into the history too.
//    Every load completion is checked for membership in that history
//    (never-written words must read zero). A read may legitimately be
//    *stale* under release consistency, but it can never be a value no
//    write produced -- membership catches lost updates applied to the
//    wrong word, mis-sized write-through, and corrupted fills, without
//    false positives on legal staleness.
//
//  - Directory/cache agreement + exact data audit (at quiescence). Strict
//    instantaneous agreement between a home's sharer set and the caches is
//    intentionally not asserted either: a WI home removes sharers when it
//    *sends* invalidations, an update home adds a sharer before the fill
//    arrives. Once the event queue drains, every in-flight transition has
//    landed, and the checker audits both directions: each directory entry
//    against the caches (Unowned => no copies; Shared/Update => sharer set
//    == exactly the caches holding Shared/ValidU; Exclusive/Private =>
//    owner holds the only, writable, copy) and each valid cache line
//    against its home's entry. The data audit then compares the
//    authoritative copy of every written word (owner's cache for
//    Exclusive/Private, home memory otherwise) -- and every other valid
//    copy -- against the shadow memory, word for word.
//
// Violations throw InvariantViolation carrying a structured report: the
// block (with its allocator-assigned symbolic name), its home, the
// directory entry, every cache holding the block, the shadow/observed
// values, and the last-N trace events touching that block (the checker
// registers as a TraceSink to keep a small per-block event ring).
#pragma once

#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/memory_module.hpp"
#include "mem/shared_alloc.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sim/types.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccsim::obs {

/// A coherence invariant failed. what() is the full structured report.
class InvariantViolation : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class InvariantChecker : public TraceSink, public Observer {
public:
  /// Per-block ring of recent trace events attached to violation reports.
  static constexpr std::size_t kTraceTail = 12;

  /// Values remembered per word for the read-membership check on an
  /// `nprocs`-node machine: max(1024, 64 * nprocs). Every global write is
  /// recorded at the home and again at each updated copy, so the ring
  /// must grow with the node count to still hold the value a legally
  /// stale copy returns; 1024 covers P <= 16.
  [[nodiscard]] static std::size_t history_depth(unsigned nprocs) noexcept {
    return std::max<std::size_t>(1024, std::size_t{64} * nprocs);
  }

  explicit InvariantChecker(unsigned nprocs) : history_depth_(history_depth(nprocs)) {}

  /// Name lookup for reports (optional; not owned).
  void set_alloc(const mem::SharedAllocator* a) noexcept { alloc_ = a; }

  /// Register one node's cache, home directory, and home memory. Pointers
  /// are not owned and must outlive the checker. Call once per node, in
  /// node-id order, before the run.
  void attach_node(mem::DataCache* cache, const mem::Directory* dir,
                   mem::MemoryModule* memory);

  // --- observer hooks (all synchronous, all may throw) -------------------

  /// A globally-ordered write: deposit `word` in the shadow memory and the
  /// word's value history.
  void on_global_write(NodeId writer, Addr addr, std::uint64_t word) override;

  /// A write visible in `writer`'s own copy but not (yet) the globally
  /// ordered value. History only; no shadow update.
  void on_local_write(NodeId writer, Addr addr, std::uint64_t word) override;

  /// An Applied update delivery is a local write of the copy's word.
  void on_update_delivered(NodeId dst, Addr addr, NodeId writer, Delivery d,
                           std::uint64_t word) override;

  /// A load completed: checks membership of `word` in the word's history.
  void on_read(NodeId reader, Addr addr, std::uint64_t word) override;

  /// Checks single-writer against every other cache.
  void on_writable(NodeId node, mem::BlockAddr b) override;

  /// Machine::poke wrote simulated memory before the run.
  void on_poke(Addr addr, std::uint64_t word) override;

  /// Full directory/cache agreement + shadow data audit. Call only at
  /// quiescence (event queue drained, all programs complete).
  void final_audit();

  /// Total individual invariant checks performed (reporting aid).
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }

  // --- TraceSink (per-block event ring for reports) ---------------------
  void on_event(const TraceEvent& e) override;

private:
  struct NodeView {
    mem::DataCache* cache = nullptr;
    const mem::Directory* dir = nullptr;
    mem::MemoryModule* memory = nullptr;
  };
  struct History {
    std::vector<std::uint64_t> values;  ///< ring, newest at (head-1)
    std::size_t head = 0;
    bool wrapped = false;
  };

  void record(Addr word_addr, std::uint64_t word);
  [[nodiscard]] bool known_value(Addr word_addr, std::uint64_t word) const;

  /// All caches currently holding block `b`, with their line states.
  [[nodiscard]] std::vector<std::pair<NodeId, mem::LineState>> holders(
      mem::BlockAddr b) const;

  [[nodiscard]] std::string describe_block(mem::BlockAddr b) const;
  [[noreturn]] void fail(mem::BlockAddr b, const std::string& what) const;

  void audit_entry(NodeId home, mem::BlockAddr b, const mem::DirEntry& e);
  void audit_data(NodeId home, mem::BlockAddr b, const mem::DirEntry& e);

  std::size_t history_depth_;
  const mem::SharedAllocator* alloc_ = nullptr;
  std::vector<NodeView> nodes_;
  std::unordered_map<Addr, std::uint64_t> shadow_;  ///< word addr -> value
  std::unordered_map<Addr, History> history_;
  std::unordered_map<mem::BlockAddr, std::deque<std::string>> recent_;
  std::uint64_t checks_ = 0;
};

} // namespace ccsim::obs
