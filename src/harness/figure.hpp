// Miss and update breakdown columns for the figure-reproduction benches.
#pragma once

#include "stats/counters.hpp"
#include "stats/table.hpp"

#include <string>
#include <vector>

namespace ccsim::harness {

/// Cells for a categorized miss breakdown (cold/true/false/evict/drop + excl).
[[nodiscard]] std::vector<std::string> miss_cells(const stats::MissCounts& m);
[[nodiscard]] std::vector<std::string> miss_headers();

/// Cells for a categorized update breakdown (useful/false/prolif/end/drop;
/// the replacement column is included for completeness -- the paper notes
/// it was never observed, which our runs reproduce).
[[nodiscard]] std::vector<std::string> update_cells(const stats::UpdateCounts& u);
[[nodiscard]] std::vector<std::string> update_headers();

} // namespace ccsim::harness
