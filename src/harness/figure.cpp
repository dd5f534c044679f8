#include "harness/figure.hpp"

namespace ccsim::harness {

using stats::Table;

std::vector<std::string> miss_headers() {
  return {"cold", "true", "false", "evict", "drop", "total", "excl-req"};
}

std::vector<std::string> miss_cells(const stats::MissCounts& m) {
  using stats::MissClass;
  return {Table::num(m[MissClass::Cold]),     Table::num(m[MissClass::TrueSharing]),
          Table::num(m[MissClass::FalseSharing]), Table::num(m[MissClass::Eviction]),
          Table::num(m[MissClass::Drop]),     Table::num(m.total()),
          Table::num(m.exclusive_requests)};
}

std::vector<std::string> update_headers() {
  return {"useful", "false", "prolif", "repl", "end", "drop", "total"};
}

std::vector<std::string> update_cells(const stats::UpdateCounts& u) {
  using stats::UpdateClass;
  return {Table::num(u[UpdateClass::TrueSharing]),  Table::num(u[UpdateClass::FalseSharing]),
          Table::num(u[UpdateClass::Proliferation]), Table::num(u[UpdateClass::Replacement]),
          Table::num(u[UpdateClass::Termination]),  Table::num(u[UpdateClass::Drop]),
          Table::num(u.total())};
}

} // namespace ccsim::harness
