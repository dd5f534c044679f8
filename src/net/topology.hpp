// 2D mesh topology with dimension-ordered (X then Y) routing.
//
// The paper's machine is a bi-directional wormhole-routed mesh. With
// contention modeled only at the source and destination network interfaces
// (paper, section 3.1), the route itself contributes only the per-switch
// header delay, so the topology's job is to give deterministic hop counts.
#pragma once

#include "sim/types.hpp"

#include <cstdint>
#include <utility>

namespace ccsim::net {

/// Geometry of an X-by-Y mesh holding `count` nodes (row-major ids).
class MeshTopology {
public:
  /// Build the smallest near-square mesh for `count` nodes
  /// (1x1, 2x1, 2x2, 4x2, 4x4, 8x4, ...).
  explicit MeshTopology(unsigned count);

  MeshTopology(unsigned x, unsigned y);

  [[nodiscard]] unsigned count() const noexcept { return count_; }
  /// Switch positions, x * y: routes out of a partly filled last row pass
  /// positions >= count() that hold no node.
  [[nodiscard]] unsigned positions() const noexcept { return x_ * y_; }
  [[nodiscard]] unsigned dim_x() const noexcept { return x_; }
  [[nodiscard]] unsigned dim_y() const noexcept { return y_; }

  /// (x, y) coordinate of a node.
  [[nodiscard]] std::pair<unsigned, unsigned> coords(NodeId n) const noexcept {
    return {static_cast<unsigned>(n) % x_, static_cast<unsigned>(n) / x_};
  }

  /// Number of switch hops on the dimension-ordered route from a to b.
  [[nodiscard]] unsigned hops(NodeId a, NodeId b) const noexcept;

  /// The next node after `from` on the dimension-ordered (X then Y) route
  /// toward `to`. Precondition: from != to.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const noexcept;

private:
  unsigned x_ = 1;
  unsigned y_ = 1;
  unsigned count_ = 1;
};

} // namespace ccsim::net
