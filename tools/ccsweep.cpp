// ccsweep: run a (protocol x construct x config) simulation grid through
// the parallel sweep engine and emit one JSON document for the whole grid.
//
//   ccsweep [--protocols WI,PU,CU] [--constructs lock,barrier,reduction]
//           [--locks tk,MCS,uc] [--barriers cb,db,tb,ct]
//           [--reductions sr,pr] [--procs 8,16,32] [--cu-threshold 2,4,8]
//           [--seeds 0x5eed,7] [--scale X | --paper] [--jobs N]
//           [--profile] [--host-metrics] [--max-cycles N] [--out FILE]
//           [--progress] [--quiet]
//
// Flags come from the shared table in harness/cli (`--flag value` or
// `--flag=value`; --procs items in [1, 64]; --help lists them). The grid
// is harness::Grid expanded by grid_jobs: the cross product of the lists,
// where --cu-threshold multiplies only CU cells (the threshold is inert
// under WI/PU and would duplicate cells) and --seeds multiplies only lock
// and reduction cells (barriers take no seed). Defaults: barriers
// cb,db,tb and reductions sr,pr at P=16, scale 0.02. --jobs N runs cells
// on N worker threads (0 = one per hardware thread); output is
// byte-identical for every N because cells are independent deterministic
// simulations emitted in submission order.
//
// Output (stdout by default): a schema-versioned document with one
// object per cell -- the same run-object schema as the benches' --json
// documents (see docs/schema.md), plus ok/error so a cell that threw
// (e.g. outlived its --max-cycles budget) is reported as a failed
// cell without aborting the sweep -- and a merged summary (counts,
// failed cell names, best cell per construct family). Exits 0 when every
// cell succeeded, 1 otherwise, 2 on usage errors.
//
// --host-metrics adds the opt-in per-cell "host" section (host ms,
// throughput, queue stats; docs/schema.md) -- host readings vary run to
// run, so documents with it are not byte-comparable. --progress paints a
// live cells-done/rate/ETA line on stderr (only when stderr is a TTY;
// --quiet suppresses it and the final summary line).
#include "harness/sweep.hpp"
#include "stats/json.hpp"

#include <iostream>

using namespace ccsim;
using namespace ccsim::harness;

namespace {

void write_doc(std::ostream& os, const Grid& g, const std::vector<SweepJob>& jobs,
               const std::vector<SweepResult>& results) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccsweep");
  w.key("scale").value(g.scale);

  w.key("grid").begin_object();
  w.key("protocols").begin_array();
  for (proto::Protocol p : g.protocols) w.value(proto::to_string(p));
  w.end_array();
  w.key("constructs").begin_array();
  for (ConstructFamily f : g.families) w.value(to_string(f));
  w.end_array();
  w.key("procs").begin_array();
  for (unsigned p : g.procs) w.value(p);
  w.end_array();
  w.key("cu_thresholds").begin_array();
  for (unsigned t : g.cu_thresholds) w.value(t);
  w.end_array();
  if (!g.seeds.empty()) {
    w.key("seeds").begin_array();
    for (std::uint64_t s : g.seeds) w.value(s);
    w.end_array();
  }
  w.key("cells").value(static_cast<std::uint64_t>(jobs.size()));
  w.end_object();

  w.key("cells").begin_array();
  for (const SweepResult& r : results) write_cell_json(w, r);
  w.end_array();

  // Merged summary: counts, failures by name, and the fastest cell per
  // construct family (ties resolve to the earliest submitted cell).
  std::size_t ok = 0;
  std::vector<const SweepResult*> failed;
  std::uint64_t total_cycles = 0;
  const SweepResult* best[3] = {nullptr, nullptr, nullptr};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    if (!r.ok) {
      failed.push_back(&r);
      continue;
    }
    ++ok;
    total_cycles += r.run.cycles;
    const auto fam = static_cast<std::size_t>(jobs[i].family);
    if (best[fam] == nullptr || r.run.avg_latency < best[fam]->run.avg_latency)
      best[fam] = &r;
  }
  w.key("summary").begin_object();
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.key("ok").value(static_cast<std::uint64_t>(ok));
  w.key("failed").value(static_cast<std::uint64_t>(failed.size()));
  if (!failed.empty()) {
    w.key("failed_cells").begin_array();
    for (const SweepResult* r : failed) {
      w.begin_object();
      w.key("name").value(r->name);
      w.key("fail_kind").value(to_string(r->fail));
      w.key("error").value(r->error);
      w.end_object();
    }
    w.end_array();
  }
  w.key("total_cycles").value(total_cycles);
  w.key("best").begin_object();
  for (std::size_t f = 0; f < 3; ++f) {
    if (best[f] == nullptr) continue;
    w.key(to_string(static_cast<ConstructFamily>(f)));
    w.begin_object();
    w.key("name").value(best[f]->name);
    w.key("avg_latency").value(best[f]->run.avg_latency);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.end_object();
  os << '\n';
}

/// "lock/tk/CU/t4/p16/s7": the threshold only on CU cells, the seed only
/// on seeded lock and reduction cells.
std::string cell_name(const GridCell& c) {
  std::string s{to_string(c.family)};
  s += '/';
  s += c.tag();
  s += '/';
  s += proto::to_string(c.protocol);
  if (c.cu_threshold) s += "/t" + std::to_string(*c.cu_threshold);
  s += "/p" + std::to_string(c.procs);
  if (c.seed) s += "/s" + std::to_string(*c.seed);
  return s;
}

template <class Kind, std::size_t N>
std::vector<Kind> parse_tags(std::string_view list, const Kind (&all)[N]) {
  return parse_list(list, [&all](std::string_view s) {
    return parse_choice(s, all, [](Kind k) { return tag(k); });
  });
}

} // namespace

int main(int argc, char** argv) {
  Grid g;
  ToolOptions o{.out = "-"};
  Flags flags{
      {"--protocols", "WI,PU,CU",
       [&](const std::string& v) { g.protocols = parse_list(v, parse_protocol); }},
      {"--constructs", "lock,barrier,reduction",
       [&](const std::string& v) {
         g.families = parse_list(v, [](std::string_view s) {
           return parse_choice(s, kFamilies,
                               [](ConstructFamily f) { return to_string(f); });
         });
       }},
      {"--locks", "tk,MCS,uc",
       [&](const std::string& v) { g.locks = parse_tags(v, kLockKinds); }},
      {"--barriers", "cb,db,tb,ct",
       [&](const std::string& v) { g.barriers = parse_tags(v, kBarrierKinds); }},
      {"--reductions", "sr,pr",
       [&](const std::string& v) { g.reductions = parse_tags(v, kReductionKinds); }},
      {"--procs", "a,b,...",
       [&](const std::string& v) { g.procs = parse_list(v, parse_nodes); }},
      {"--cu-threshold", "a,b,...",
       [&](const std::string& v) {
         g.cu_thresholds = parse_list(
             v, [](std::string_view s) { return positive(parse_unsigned(s)); });
       }},
      {"--seeds", "a,b,...",
       [&](const std::string& v) { g.seeds = parse_list(v, parse_u64); }},
      {"--scale", "X", [&](const std::string& v) { g.scale = parse_scale(v); }},
      {"--paper", "", [&](const std::string&) { g.scale = 1.0; }},
      {"--profile", "", [&](const std::string&) { g.machine.obs.profile = true; }},
      {"--host-metrics", "",
       [&](const std::string&) { g.machine.obs.host_metrics = true; }},
      {"--max-cycles", "N",
       [&](const std::string& v) { g.machine.max_cycles = positive(parse_u64(v)); }},
  };
  return tool_main(argc, argv, "ccsweep", std::move(flags), o, [&] {
    const std::vector<SweepJob> jobs = grid_jobs(g, cell_name);
    const std::vector<SweepResult> results = run_sweep(jobs, o.sweep());
    const std::size_t failed = print_failures(results);
    o.write(std::to_string(results.size()) + " cell(s) (" + std::to_string(failed) +
                " failed)",
            [&](std::ostream& os) { write_doc(os, g, jobs, results); });
    return failed == 0 ? 0 : 1;
  });
}
