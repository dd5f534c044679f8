// ccstress: seeded randomized robustness tester.
//
//   ccstress [--protocols WI,PU,CU] [--seeds N | --seed-list a,b,...]
//            [--jitters 0,3,17] [--procs 16] [--segments 6] [--ops 48]
//            [--blocks 16] [--watchdog N] [--max-cycles N] [--jobs N]
//            [--no-check] [--inject-hang] [--host-metrics] [--out FILE]
//            [--progress] [--quiet]
//
// Flags come from the shared table in harness/cli (`--flag value` or
// `--flag=value`; --procs in [1, 64]; --help lists them). Fans a grid of
// (protocol x network-jitter x seed) stress cells through the parallel
// sweep engine. Every cell runs the segment-structured random workload of
// harness/stress.hpp -- randomized read/write/atomic/lock mixes separated
// by randomly chosen barriers and reduction rounds -- with the
// coherence-invariant checker and the deadlock/livelock watchdog enabled,
// under deterministic network-delivery jitter. The whole grid is a pure
// function of its seeds: the same invocation produces a byte-identical
// report for any --jobs value.
//
// --inject-hang appends one deliberately hung cell (a spin nobody
// satisfies) so CI can assert the watchdog path end to end.
//
// --host-metrics adds the opt-in per-cell "host" section (host ms,
// throughput, queue stats; docs/schema.md) -- host readings vary run to
// run, so documents with it are not byte-comparable. --progress paints a
// live cells-done/rate/ETA line on stderr (only when stderr is a TTY;
// --quiet suppresses it and the final summary line).
//
// Exit codes: 0 = every cell passed; 1 = some cell failed another way,
// including a budget stop (fail_kind "budget": the cell outlived
// --max-cycles, which is not by itself a hang); 2 = usage error; 3 = a
// cell tripped the deadlock/livelock watchdog or drained its event queue
// with programs waiting; 4 = a cell violated a coherence invariant.
// Invariant beats deadlock beats other when cells disagree.
#include "harness/stress.hpp"
#include "harness/sweep.hpp"
#include "sim/rng.hpp"
#include "stats/json.hpp"

#include <iostream>

using namespace ccsim;
using namespace ccsim::harness;

namespace {

struct Options {
  std::vector<proto::Protocol> protocols{proto::Protocol::WI, proto::Protocol::PU,
                                         proto::Protocol::CU};
  std::vector<std::uint64_t> seeds;  ///< filled from --seeds N if empty
  unsigned seed_count = 12;
  std::vector<Cycle> jitters{0, 3, 17};
  unsigned procs = 16;
  StressParams stress;
  Cycle watchdog = 2'000'000;
  Cycle max_cycles = 50'000'000;
  bool check = true;
  bool inject_hang = false;
  bool host_metrics = false;
};

MachineConfig stress_machine(const Options& o, proto::Protocol proto,
                             std::uint64_t seed, Cycle jitter) {
  MachineConfig cfg;
  cfg.protocol = proto;
  cfg.nprocs = o.procs;
  cfg.max_cycles = o.max_cycles;
  cfg.watchdog_stall_cycles = o.watchdog;
  cfg.obs.check_invariants = o.check;
  cfg.obs.host_metrics = o.host_metrics;
  cfg.net.jitter_max = jitter;
  // Each cell draws its own jitter stream; tied to the cell seed so one
  // seed replays the cell exactly, including the perturbation.
  cfg.net.jitter_seed = sim::Rng::derive(seed, 0x717e5);
  return cfg;
}

std::vector<SweepJob> build_grid(const Options& o) {
  std::vector<SweepJob> jobs;
  for (proto::Protocol proto : o.protocols) {
    for (Cycle jitter : o.jitters) {
      for (std::uint64_t seed : o.seeds) {
        SweepJob j;
        j.name = "stress/" + std::string(proto::to_string(proto)) + "/j" +
                 std::to_string(jitter) + "/s" + std::to_string(seed);
        j.machine = stress_machine(o, proto, seed, jitter);
        StressParams sp = o.stress;
        sp.seed = seed;
        j.runner = [sp](const MachineConfig& cfg) { return run_stress_cell(cfg, sp); };
        jobs.push_back(std::move(j));
      }
    }
  }
  if (o.inject_hang) {
    // A cell that can never finish: processor 0 spins on a word nobody
    // writes. Exercises the watchdog/deadlock reporting path end to end.
    SweepJob j;
    j.name = "stress/inject-hang";
    j.machine = stress_machine(o, o.protocols.front(), 1, 0);
    j.runner = [](const MachineConfig& cfg) {
      Machine m(cfg);
      const Addr a = m.alloc().allocate_on(0, mem::kWordSize, "hang.word");
      std::vector<Machine::Program> ps;
      ps.push_back([a](cpu::Cpu& c) -> sim::Task {
        co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
      });
      m.run(ps);
      return RunResult{};
    };
    jobs.push_back(std::move(j));
  }
  return jobs;
}

void write_doc(std::ostream& os, const Options& o,
               const std::vector<SweepResult>& results) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccstress");

  w.key("grid").begin_object();
  w.key("protocols").begin_array();
  for (proto::Protocol p : o.protocols) w.value(proto::to_string(p));
  w.end_array();
  w.key("seeds").begin_array();
  for (std::uint64_t s : o.seeds) w.value(s);
  w.end_array();
  w.key("jitters").begin_array();
  for (Cycle j : o.jitters) w.value(j);
  w.end_array();
  w.key("procs").value(o.procs);
  w.key("segments").value(o.stress.segments);
  w.key("ops_per_segment").value(o.stress.ops_per_segment);
  w.key("data_blocks").value(o.stress.data_blocks);
  w.key("watchdog_stall_cycles").value(o.watchdog);
  w.key("check_invariants").value(o.check);
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.end_object();

  w.key("cells").begin_array();
  for (const SweepResult& r : results) write_cell_json(w, r);
  w.end_array();

  std::size_t ok = 0, deadlocks = 0, invariants = 0, other = 0;
  std::uint64_t total_checks = 0;
  for (const SweepResult& r : results) {
    if (r.ok) {
      ++ok;
      total_checks += r.run.invariant_checks;
      continue;
    }
    switch (r.fail) {
      case SweepResult::FailKind::Deadlock: ++deadlocks; break;
      case SweepResult::FailKind::Invariant: ++invariants; break;
      default: ++other; break;
    }
  }
  w.key("summary").begin_object();
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.key("ok").value(static_cast<std::uint64_t>(ok));
  w.key("deadlocks").value(static_cast<std::uint64_t>(deadlocks));
  w.key("invariant_violations").value(static_cast<std::uint64_t>(invariants));
  w.key("other_failures").value(static_cast<std::uint64_t>(other));
  w.key("invariant_checks").value(total_checks);
  w.end_object();

  w.end_object();
  os << '\n';
}

/// 4 = invariant violation, 3 = deadlock, 1 = budget stop or other
/// failure, 0 = clean.
int exit_code(const std::vector<SweepResult>& results) {
  int code = 0;
  for (const SweepResult& r : results) {
    switch (r.fail) {
      case SweepResult::FailKind::None: break;
      case SweepResult::FailKind::Invariant: code = 4; break;
      case SweepResult::FailKind::Deadlock: code = std::max(code, 3); break;
      case SweepResult::FailKind::Budget:
      case SweepResult::FailKind::Other: code = std::max(code, 1); break;
    }
  }
  return code;
}

} // namespace

int main(int argc, char** argv) {
  Options o;
  ToolOptions run{.out = "-"};
  const auto count = [](std::string_view v) { return positive(parse_unsigned(v)); };
  Flags flags{
      {"--protocols", "WI,PU,CU",
       [&](const std::string& v) { o.protocols = parse_list(v, parse_protocol); }},
      {"--seeds", "N", [&](const std::string& v) { o.seed_count = count(v); }},
      {"--seed-list", "a,b,...",
       [&](const std::string& v) { o.seeds = parse_list(v, parse_u64); }},
      {"--jitters", "a,b,...",
       [&](const std::string& v) { o.jitters = parse_list(v, parse_u64); }},
      {"--procs", "N", [&](const std::string& v) { o.procs = parse_nodes(v); }},
      {"--segments", "N", [&](const std::string& v) { o.stress.segments = count(v); }},
      {"--ops", "N", [&](const std::string& v) { o.stress.ops_per_segment = count(v); }},
      {"--blocks", "N", [&](const std::string& v) { o.stress.data_blocks = count(v); }},
      {"--watchdog", "CYCLES", [&](const std::string& v) { o.watchdog = parse_u64(v); }},
      {"--max-cycles", "N",
       [&](const std::string& v) { o.max_cycles = positive(parse_u64(v)); }},
      {"--no-check", "", [&](const std::string&) { o.check = false; }},
      {"--inject-hang", "", [&](const std::string&) { o.inject_hang = true; }},
      {"--host-metrics", "", [&](const std::string&) { o.host_metrics = true; }},
  };
  return tool_main(argc, argv, "ccstress", std::move(flags), run, [&] {
    if (o.seeds.empty())
      for (unsigned s = 1; s <= o.seed_count; ++s) o.seeds.push_back(s);
    const std::vector<SweepResult> results = run_sweep(build_grid(o), run.sweep());
    print_failures(results);
    run.write(std::to_string(results.size()) + " cell(s)",
              [&](std::ostream& os) { write_doc(os, o, results); });
    return exit_code(results);
  });
}
