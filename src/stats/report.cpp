#include "stats/report.hpp"

#include "stats/json.hpp"
#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

namespace ccsim::stats {

void print_report(std::ostream& os, const Counters& c) {
  os << "cache misses (" << c.misses.total() << " total, " << c.misses.useful()
     << " useful):\n";
  for (std::size_t i = 0; i < kMissClasses; ++i) {
    const auto cls = static_cast<MissClass>(i);
    os << "  " << to_string(cls) << ": " << c.misses[cls] << '\n';
  }
  os << "  exclusive requests: " << c.misses.exclusive_requests << '\n';

  os << "update messages (" << c.updates.total() << " total, " << c.updates.useful()
     << " useful):\n";
  for (std::size_t i = 0; i < kUpdateClasses; ++i) {
    const auto cls = static_cast<UpdateClass>(i);
    os << "  " << to_string(cls) << ": " << c.updates[cls] << '\n';
  }

  os << "network: " << c.net.messages << " messages, " << c.net.flits << " flits, "
     << c.net.hops << " total hops, " << c.net.local << " local deliveries\n";
  os << "message profile:";
  for (std::size_t i = 0; i < kMsgTypeCount; ++i) {
    if (c.net.by_type[i] == 0) continue;
    os << ' ' << net::to_string(static_cast<net::MsgType>(i)) << '='
       << c.net.by_type[i];
  }
  os << '\n';
  os << "memory:  " << c.mem.shared_reads << " shared reads (" << c.mem.read_hits
     << " hits), " << c.mem.shared_writes << " shared writes, " << c.mem.atomics
     << " atomics, " << c.mem.write_buffer_stalls << " WB-stall cycles\n";
}

void print_profile(std::ostream& os, const obs::ProfileSnapshot& p) {
  if (!p.enabled()) return;
  const auto totals = p.totals();
  const double denom =
      static_cast<double>(p.wall) * static_cast<double>(p.per_proc.size());

  os << "cycle breakdown (" << p.per_proc.size() << " procs x " << p.wall
     << " cycles";
  if (!p.conserved()) os << ", NOT CONSERVED";
  os << "):\n";
  Table cats({{"", 14, /*left=*/true, "  "},
              {"", 6, /*left=*/false, " "},
              {"", 0, /*left=*/true, ""}});
  for (std::size_t i = 0; i < obs::kCycleCats; ++i) {
    if (totals[i] == 0) continue;
    const double pct = denom > 0.0 ? 100.0 * static_cast<double>(totals[i]) / denom
                                   : 0.0;
    // Stacked-bar rendering: one '#' per 2% of total processor-cycles.
    const int cols = static_cast<int>(pct / 2.0 + 0.5);
    cats.add_row({std::string(to_string(static_cast<obs::CycleCat>(i))),
                  Table::num(pct, 2), "% " + std::string(cols, '#')});
  }
  cats.print(os);
  os << "write buffer: peak occupancy " << p.wb_peak << ", " << p.wb_pushes
     << " stores accepted\n";

  bool any_phase = false;
  for (const auto& h : p.phases) any_phase |= h.count() != 0;
  if (any_phase) {
    os << "sync phases:\n";
    Table phases({{"", 17, /*left=*/true, "  "}, {"", 0, /*left=*/true, " "}});
    for (std::size_t i = 0; i < obs::kSyncPhases; ++i) {
      if (p.phases[i].count() == 0) continue;
      phases.add_row({std::string(to_string(static_cast<obs::SyncPhase>(i))),
                      p.phases[i].summary()});
    }
    phases.print(os);
  }
}

void print_host(std::ostream& os, const obs::HostPerfReport& h) {
  if (!h.enabled()) return;
  char line[160];
  std::snprintf(line, sizeof line,
                "host: %.1f ms, %.2f Mcyc/s, %.1f kev/s (%llu events, %llu cycles)\n",
                h.ms(), h.cycles_per_sec() * 1e-6, h.events_per_sec() * 1e-3,
                static_cast<unsigned long long>(h.events_executed),
                static_cast<unsigned long long>(h.sim_cycles));
  os << line;
  std::snprintf(line, sizeof line,
                "  queue depth: %s peak=%llu (sampled every %llu cycles)\n",
                h.queue_depth.summary().c_str(),
                static_cast<unsigned long long>(h.queue_peak),
                static_cast<unsigned long long>(h.queue_sample_interval));
  os << line;
  std::snprintf(line, sizeof line,
                "  alloc: %llu messages, %llu coroutine frames, %llu events scheduled\n",
                static_cast<unsigned long long>(h.messages),
                static_cast<unsigned long long>(h.frames),
                static_cast<unsigned long long>(h.events_scheduled));
  os << line;
  os << "  host time:";
  for (std::size_t i = 0; i < obs::kHostCats; ++i) {
    const auto c = static_cast<obs::HostCat>(i);
    std::snprintf(line, sizeof line, " %s=%.1f%%",
                  std::string(obs::to_string(c)).c_str(), 100.0 * h.share(c));
    os << line;
  }
  os << '\n';
}

void print_sharing(std::ostream& os, const obs::SharingReport& r,
                   std::size_t max_rows) {
  if (!r.enabled()) return;
  char line[160];
  std::snprintf(line, sizeof line,
                "sharing: %zu blocks, recommend %s (projected Mcyc: WI=%.2f "
                "PU=%.2f CU=%.2f)\n",
                r.blocks.size(), std::string(proto::to_string(r.recommended)).c_str(),
                r.total_wi * 1e-6, r.total_pu * 1e-6, r.total_cu * 1e-6);
  os << line;
  os << "  patterns:";
  for (std::size_t i = 0; i < obs::kSharingPatterns; ++i) {
    if (r.pattern_blocks[i] == 0) continue;
    os << ' ' << obs::to_string(static_cast<obs::SharingPattern>(i)) << '='
       << r.pattern_blocks[i];
  }
  os << '\n';

  Table blocks({{"block", 0, /*left=*/true, "  "},
                {"pattern", 0, /*left=*/true, "  "},
                {"acc", 0, false, "  "},
                {"reads", 0, false, "  "},
                {"writes", 0, false, "  "},
                {"rd/int", 0, false, "  "},
                {"runs", 0, false, "  "},
                {"inv", 0, false, "  "},
                {"upd", 0, false, "  "},
                {"wasted", 0, false, "  "},
                {"best", 0, false, "  "}},
               /*rule=*/true);
  const std::size_t shown = std::min(max_rows, r.blocks.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const obs::SharingReport::Row& row = r.blocks[i];
    blocks.add_row({row.name.empty() ? hex(row.base) : row.name,
                    std::string(obs::to_string(row.pattern)),
                    Table::num(static_cast<std::uint64_t>(row.accessors)),
                    Table::num(row.reads), Table::num(row.writes),
                    Table::num(row.avg_interval_readers(), 1),
                    Table::num(row.runs), Table::num(row.invals_sent),
                    Table::num(row.updates_delivered),
                    Table::num(row.updates_wasted),
                    std::string(proto::to_string(row.best))});
  }
  blocks.print(os);
  if (shown < r.blocks.size())
    os << "  ... (" << (r.blocks.size() - shown) << " more blocks)\n";

  if (!r.allocs.empty()) {
    os << "per allocation:\n";
    Table allocs({{"name", 0, /*left=*/true, "  "},
                  {"blocks", 0, false, "  "},
                  {"pattern", 0, /*left=*/true, "  "},
                  {"reads", 0, false, "  "},
                  {"writes", 0, false, "  "},
                  {"cost.WI", 0, false, "  "},
                  {"cost.PU", 0, false, "  "},
                  {"cost.CU", 0, false, "  "},
                  {"best", 0, false, "  "}},
                 /*rule=*/true);
    for (const obs::SharingReport::Alloc& a : r.allocs)
      allocs.add_row({a.name, Table::num(static_cast<std::uint64_t>(a.blocks)),
                      std::string(obs::to_string(a.pattern)),
                      Table::num(a.reads), Table::num(a.writes),
                      Table::num(a.cost_wi, 0), Table::num(a.cost_pu, 0),
                      Table::num(a.cost_cu, 0),
                      std::string(proto::to_string(a.best))});
    allocs.print(os);
  }
}

} // namespace ccsim::stats
