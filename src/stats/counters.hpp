// Aggregate counters: categorized miss/update traffic and raw volumes.
//
// The miss and update categories follow section 3.2 of the paper exactly.
// Misses split into cold start, true sharing, false sharing, eviction and
// drop; exclusive requests (upgrades) are counted alongside because they
// cause traffic without being misses. Updates split into true sharing
// (useful), false sharing, proliferation, replacement, termination and drop.
#pragma once

#include "net/message.hpp"
#include "sim/types.hpp"

#include <array>
#include <cstdint>
#include <string_view>

namespace ccsim::stats {

/// Number of distinct coherence message types (for per-type profiles).
inline constexpr std::size_t kMsgTypeCount =
    static_cast<std::size_t>(net::MsgType::AtomicReply) + 1;

enum class MissClass : std::uint8_t {
  Cold,         ///< first reference to the block by this processor
  TrueSharing,  ///< copy invalidated by a write to a word we now reference
  FalseSharing, ///< copy invalidated, but by writes to other words only
  Eviction,     ///< copy lost to a conflict replacement, later reloaded
  Drop,         ///< copy self-invalidated by the competitive-update counter
  Count_
};
inline constexpr std::size_t kMissClasses = static_cast<std::size_t>(MissClass::Count_);

enum class UpdateClass : std::uint8_t {
  TrueSharing,   ///< receiver referenced the updated word before overwrite (useful)
  FalseSharing,  ///< receiver referenced another word of the block instead
  Proliferation, ///< receiver referenced nothing in the block before overwrite
  Replacement,   ///< block replaced before the word was referenced
  Termination,   ///< update still unreferenced when the program ended
  Drop,          ///< the update that triggered a competitive-update drop
  Count_
};
inline constexpr std::size_t kUpdateClasses = static_cast<std::size_t>(UpdateClass::Count_);

[[nodiscard]] std::string_view to_string(MissClass c) noexcept;
[[nodiscard]] std::string_view to_string(UpdateClass c) noexcept;

struct MissCounts {
  std::array<std::uint64_t, kMissClasses> by{};
  /// Write-hit-on-shared upgrade transactions: not misses, but traffic.
  std::uint64_t exclusive_requests = 0;

  std::uint64_t& operator[](MissClass c) { return by[static_cast<std::size_t>(c)]; }
  std::uint64_t operator[](MissClass c) const { return by[static_cast<std::size_t>(c)]; }
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// Cold + true sharing (the paper's "useful" misses).
  [[nodiscard]] std::uint64_t useful() const noexcept;
  [[nodiscard]] std::uint64_t useless() const noexcept { return total() - useful(); }
  bool operator==(const MissCounts&) const = default;
};

struct UpdateCounts {
  std::array<std::uint64_t, kUpdateClasses> by{};

  std::uint64_t& operator[](UpdateClass c) { return by[static_cast<std::size_t>(c)]; }
  std::uint64_t operator[](UpdateClass c) const { return by[static_cast<std::size_t>(c)]; }
  [[nodiscard]] std::uint64_t total() const noexcept;
  [[nodiscard]] std::uint64_t useful() const noexcept {
    return (*this)[UpdateClass::TrueSharing];
  }
  [[nodiscard]] std::uint64_t useless() const noexcept { return total() - useful(); }
  bool operator==(const UpdateCounts&) const = default;
};

struct NetCounters {
  std::uint64_t messages = 0;  ///< remote messages injected
  std::uint64_t flits = 0;     ///< total flits injected
  std::uint64_t hops = 0;      ///< sum of per-message switch hops
  std::uint64_t local = 0;     ///< node-local deliveries (no network)
  /// Per-message-type profile (remote + local), e.g. how many Updates vs
  /// Invals a run generated -- the protocol's communication signature.
  std::array<std::uint64_t, kMsgTypeCount> by_type{};

  [[nodiscard]] std::uint64_t of(net::MsgType t) const {
    return by_type[static_cast<std::size_t>(t)];
  }
  bool operator==(const NetCounters&) const = default;
};

struct MemCounters {
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t atomics = 0;
  std::uint64_t write_buffer_stalls = 0;  ///< cycles lost to a full write buffer
  std::uint64_t fence_stall_cycles = 0;   ///< cycles waiting for acks at releases
  bool operator==(const MemCounters&) const = default;
};

/// Everything one simulation run accumulates.
struct Counters {
  MissCounts misses;
  UpdateCounts updates;
  NetCounters net;
  MemCounters mem;
  bool operator==(const Counters&) const = default;
};

/// Field-wise `now - prev`. All counters are monotone over a run, so this
/// is the traffic of the window between two snapshots (interval sampling).
[[nodiscard]] Counters delta(const Counters& now, const Counters& prev) noexcept;

/// Field-wise accumulation (the inverse of delta; used to check that
/// per-interval samples sum back to the run totals).
void accumulate(Counters& into, const Counters& add) noexcept;

} // namespace ccsim::stats
