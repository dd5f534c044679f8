// Shared-segment allocator with home placement and symbolic names.
//
// The paper maps shared data "to the processors that use them most
// frequently" (section 4). allocate_on() places a block-aligned region at a
// chosen home node; allocate() falls back to block-level interleaving
// across all nodes (section 3.1).
//
// Allocations may carry a symbolic name; name_of() resolves any address
// back to "name+0xoffset", which the observability layer uses to label
// hot blocks ("mcs.qnodes+0x10" instead of a raw address).
#pragma once

#include "mem/address.hpp"
#include "mem/block_table.hpp"
#include "sim/types.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::mem {

class SharedAllocator {
public:
  /// One named allocation (regions are recorded in address order).
  struct Region {
    Addr start = 0;
    std::size_t size = 0;
    std::string name;
  };

  explicit SharedAllocator(unsigned nodes) : nodes_(nodes) {}

  /// Allocate interleaved shared memory (home = block mod nodes).
  Addr allocate(std::size_t size, std::size_t align = kWordSize,
                std::string_view name = {});

  /// Allocate shared memory homed at `home`. The region is padded to whole
  /// blocks so placement never splits a block.
  Addr allocate_on(NodeId home, std::size_t size, std::string_view name = {});

  /// Home node of a block: its placement, else block mod nodes.
  [[nodiscard]] NodeId home_of(BlockAddr b) const;

  /// Symbolic name of the allocation containing `a` ("name+0x18"), or ""
  /// when `a` falls outside every named region.
  [[nodiscard]] std::string name_of(Addr a) const;

  [[nodiscard]] const std::vector<Region>& regions() const noexcept {
    return regions_;
  }

  /// Protocol-domain binding (hybrid machines): tag every block of
  /// [start, start+size) with an opaque domain id. Domain 0 is the
  /// default; the protocol layer maps ids to coherence protocols.
  void set_domain(Addr start, std::size_t size, std::uint8_t domain);
  [[nodiscard]] std::uint8_t domain_of(BlockAddr b) const;

  [[nodiscard]] unsigned nodes() const noexcept { return nodes_; }

private:
  /// Placement and domain of one block; the default is an interleaved
  /// block of domain 0.
  struct BlockTag {
    NodeId home = kInvalidNode;  ///< kInvalidNode: interleaved (block mod nodes)
    std::uint8_t domain = 0;
  };

  void record_region(Addr start, std::size_t size, std::string_view name);
  /// The tag of `b`, or nullptr for a block no placement or domain reached
  /// (private blocks included).
  [[nodiscard]] const BlockTag* tag(BlockAddr b) const noexcept {
    return b >= block_of(kSharedBase) ? tags_.find(b) : nullptr;
  }

  unsigned nodes_;
  Addr next_ = kSharedBase;
  BlockTable<BlockTag> tags_;
  std::vector<Region> regions_;  ///< named allocations, start ascending
};

} // namespace ccsim::mem
