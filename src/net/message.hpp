// Coherence message vocabulary shared by all three protocols.
#pragma once

#include "mem/address.hpp"
#include "sim/poison.hpp"
#include "sim/types.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ccsim::net {

/// Every message exchanged between cache controllers and home directories.
enum class MsgType : std::uint8_t {
  // --- write-invalidate (DASH-like) ----------------------------------
  GetS,        ///< cache -> home: read miss
  GetX,        ///< cache -> home: write miss (wants exclusive + data)
  Upgrade,     ///< cache -> home: write hit on Shared (wants exclusive)
  DataS,       ///< home -> cache: shared data reply
  DataX,       ///< home -> cache: exclusive data reply (payload = #acks)
  UpgAck,      ///< home -> cache: upgrade granted (payload = #acks)
  Inval,       ///< home -> sharer: invalidate (requester field = writer)
  InvalAck,    ///< sharer -> writer: invalidation done
  FwdGetS,     ///< home -> owner: forward a read miss
  FwdGetX,     ///< home -> owner: forward a write miss
  OwnerDataS,  ///< owner -> requester: data for a forwarded read
  OwnerDataX,  ///< owner -> requester: data for a forwarded write
  SharedWB,    ///< owner -> home: demotion writeback closing a FwdGetS
  ExclDone,    ///< requester -> home: exclusive data received, close the
               ///< transaction (prevents forwards overtaking the grant)
  TransferAck, ///< (unused legacy) owner -> home transfer notice
  FwdNack,     ///< owner -> home: I no longer hold the block (race w/ WB)
  Writeback,   ///< cache -> home: evicting a dirty block (carries data)
  WritebackAck,///< home -> cache
  ReplHint,    ///< cache -> home: evicting a clean copy (keeps full map exact)
  // --- update-based (PU / CU) ----------------------------------------
  UpdateReq,   ///< writer -> home: write-through of one word
  UpdateGrant, ///< home -> writer: payload = #acks to expect; flag = private
  Update,      ///< home -> sharer: new value of one word
  UpdateAck,   ///< sharer -> writer
  Prune,       ///< sharer -> home (CU): drop me from the sharing set
  Recall,      ///< home -> private owner (PU): give the block back
  RecallReply, ///< owner -> home: block data, demoted to plain valid
  // --- atomic read-modify-write --------------------------------------
  AtomicReq,   ///< cache -> home (update protocols execute at the memory)
  AtomicReply, ///< home -> cache: payload = old value
};

[[nodiscard]] std::string_view to_string(MsgType t) noexcept;

/// Atomic primitives implemented by the simulator (paper, section 3.1).
enum class AtomicOp : std::uint8_t {
  FetchAdd,    ///< payload = addend;   returns old value
  FetchStore,  ///< payload = new value; returns old value
  CompareSwap, ///< payload = expected, payload2 = new; returns old value
};

/// One coherence message. Fixed-size (block payload inline) so the network
/// layer never allocates.
struct Message {
  MsgType type{};
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  /// Word address for word-granular traffic (updates/atomics), block base
  /// address for block-granular traffic.
  Addr addr = 0;
  /// Third party of 3-hop transactions: the node that started the
  /// transaction (e.g. the writer whose acks an Inval collects).
  NodeId requester = kInvalidNode;
  std::uint64_t payload = 0;
  std::uint64_t payload2 = 0;
  AtomicOp op{};
  bool flag = false;                       ///< e.g. "private" on UpdateGrant
  bool has_block = false;
  std::array<std::byte, mem::kBlockSize> block{};

  /// Size on the wire in bytes: control header (+ word / block payload).
  [[nodiscard]] std::size_t wire_bytes() const noexcept;
};

/// Header bytes of every message (route + type + address + bookkeeping).
inline constexpr std::size_t kHeaderBytes = 16;

/// Messages parked by index while a scheduled event waits to use them, so
/// the event's closure carries an index that fits an event-queue slot
/// instead of the message. Freed indices are reused LIFO. Storage grows
/// only when every entry is in use, so the free entries (poisoned under
/// ASan) are never copied.
class MessageSlab {
public:
  /// Park a copy of `m`; returns its index.
  [[nodiscard]] std::uint32_t park(const Message& m) {
    if (free_.empty()) {
      slots_.push_back(m);
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    CCSIM_UNPOISON(&slots_[i], sizeof(Message));
    slots_[i] = m;
    return i;
  }

  /// Copy parked message `i` out and free its index.
  [[nodiscard]] Message take(std::uint32_t i) {
    const Message m = slots_[i];
    CCSIM_POISON(&slots_[i], sizeof(Message));
    free_.push_back(i);
    return m;
  }

private:
  std::vector<Message> slots_;
  std::vector<std::uint32_t> free_;
};

} // namespace ccsim::net
