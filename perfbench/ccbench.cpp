// ccbench: host-throughput benchmark driver for the ccsim simulator.
//
//   ccbench --workload NAME --seed N --seconds S [--trace 0|1]
//           [--digests FILE] [--spans FILE] [--tiny] [--print-digests]
//
// Workloads (simulated caches start cold in every cell):
//   paper_wi         the paper's constructs at P=32 under WI, observers off
//   paper_update     the same cell list under PU and CU
//   stress_observed  seeded run_stress_cell cells at P=16, WI/PU/CU x
//                    jitter {0, 17}, with the invariant checker, sharing
//                    tracker and hot-block table attached
// The seed feeds the random-pause lock, the imbalanced reduction and the
// stress master seed; every other cell is fixed.
//
// One client in one process on one thread: a round runs the workload's
// fixed cell list back to back through the sweep engine's single-job path
// (harness::run_sweep_job), and rounds repeat until S seconds have passed.
// The first round warms the host up and enters no timing.
//
// --trace 0 prints the end-to-end metrics, with host times quoted at a
// reference host speed by a SpeedProbe run after every cell: simulated
// Mcycles per host second of experiment calls, from each cell's best time
// over the rounds; the median over rounds of the round's summed
// harness::Machine construction time (timed apart from the runs); and the
// process's peak resident set.
// --trace 1 prints the per-layer metrics. Rounds rotate between the plain
// cells, a traced variant (obs::HostPerfCollector attached, driver spans
// recorded around every Machine construction and entry call) and a variant
// with the observers toggled; one last untimed pass attaches the
// cycle-accounting profiler for the sync layer. --spans FILE receives the
// spans and the per-layer metrics.
//
// Output check: a cell fails if its entry point throws (the built-in
// oracles: lock mutual exclusion, barrier episodes, reduction verify, the
// stress host model, the invariant checker), if its digest of simulated
// cycles and counters differs between rounds or variants, or if it differs
// from the digest recorded for it in --digests FILE. --print-digests lists
// every (variant, cell, digest) seen. The last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}. Exit codes: 0 = every
// cell passed; 1 = a cell failed; 2 = usage error.
#include "harness/stress.hpp"
#include "harness/sweep.hpp"
#include "sim/rng.hpp"
#include "stats/json.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

using namespace ccsim;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_start)
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;  ///< recorded digests to check against ("" = none)
  std::string spans;    ///< traced run: spans + per-layer metrics file
  bool tiny = false;
  bool print_digests = false;
};

/// One cell: a sweep job plus the name of the public entry point it calls.
struct Cell {
  harness::SweepJob job;
  const char* entry = "";
};

/// Problem sizes; --tiny shrinks them for the self-test.
struct Sizes {
  std::uint64_t acquires, episodes, rounds;
  unsigned stress_seeds, stress_segments, stress_ops;
};

Sizes sizes(bool tiny) {
  if (tiny) return {64, 8, 8, 1, 2, 8};
  return {1600, 150, 500, 4, 3, 12};
}

void add_paper_cells(std::vector<Cell>& cells, proto::Protocol p,
                     std::uint64_t seed, const Sizes& s) {
  harness::MachineConfig cfg;
  cfg.nprocs = 32;
  cfg.protocol = p;
  const std::string pre = std::string(proto::to_string(p)) + "/";
  const auto add = [&](std::string name, const char* entry) -> harness::SweepJob& {
    Cell c;
    c.job.name = pre + name;
    c.job.machine = cfg;
    c.entry = entry;
    cells.push_back(std::move(c));
    return cells.back().job;
  };
  const auto lock = [&](const char* tag, harness::LockKind k, Cycle pause) {
    harness::SweepJob& j = add(std::string("lock/") + tag, "run_lock_experiment");
    j.family = harness::ConstructFamily::Lock;
    j.lock = k;
    j.lock_params.total_acquires = s.acquires;
    j.lock_params.random_pause_max = pause;
    if (pause != 0) j.lock_params.seed = sim::Rng::derive(seed, 1);
  };
  const auto barrier = [&](const char* tag, harness::BarrierKind k) {
    harness::SweepJob& j = add(std::string("barrier/") + tag, "run_barrier_experiment");
    j.family = harness::ConstructFamily::Barrier;
    j.barrier = k;
    j.barrier_params.episodes = s.episodes;
  };
  const auto reduction = [&](const char* tag, harness::ReductionKind k, Cycle imbalance) {
    harness::SweepJob& j =
        add(std::string("reduction/") + tag, "run_reduction_experiment");
    j.family = harness::ConstructFamily::Reduction;
    j.reduction = k;
    j.reduction_params.rounds = s.rounds;
    j.reduction_params.imbalance_max = imbalance;
    if (imbalance != 0) j.reduction_params.seed = sim::Rng::derive(seed, 2);
  };
  // Pause and imbalance bounds follow abl_lock_contention and
  // abl_reduction_imbalance.
  lock("tk", harness::LockKind::Ticket, 0);
  lock("mcs", harness::LockKind::Mcs, 0);
  lock("uc", harness::LockKind::UcMcs, 0);
  lock("tk-pause", harness::LockKind::Ticket, 500);
  barrier("cb", harness::BarrierKind::Central);
  barrier("db", harness::BarrierKind::Dissemination);
  barrier("tb", harness::BarrierKind::Tree);
  reduction("sr", harness::ReductionKind::Sequential, 0);
  reduction("pr", harness::ReductionKind::Parallel, 0);
  reduction("pr-imb", harness::ReductionKind::Parallel, 500);
}

void add_stress_cells(std::vector<Cell>& cells, std::uint64_t seed, const Sizes& s) {
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    for (Cycle jitter : {Cycle{0}, Cycle{17}}) {
      for (unsigned k = 0; k < s.stress_seeds; ++k) {
        const std::uint64_t cell_seed = sim::Rng::derive(seed, 16 + k);
        // Machine settings follow tools/ccstress.
        harness::MachineConfig cfg;
        cfg.nprocs = 16;
        cfg.protocol = p;
        cfg.max_cycles = 50'000'000;
        cfg.watchdog_stall_cycles = 2'000'000;
        cfg.obs.check_invariants = true;
        cfg.obs.sharing = true;
        cfg.obs.hot_blocks = true;
        cfg.net.jitter_max = jitter;
        cfg.net.jitter_seed = sim::Rng::derive(cell_seed, 0x717e5);
        harness::StressParams sp;
        sp.seed = cell_seed;
        sp.segments = s.stress_segments;
        sp.ops_per_segment = s.stress_ops;
        Cell c;
        c.job.name = std::string(proto::to_string(p)) + "/stress/j" +
                     std::to_string(jitter) + "/k" + std::to_string(k);
        c.job.machine = cfg;
        c.job.runner = [sp](const harness::MachineConfig& m) {
          return harness::run_stress_cell(m, sp);
        };
        c.entry = "run_stress_cell";
        cells.push_back(std::move(c));
      }
    }
  }
}

std::vector<Cell> build_cells(const Options& o) {
  const Sizes s = sizes(o.tiny);
  std::vector<Cell> cells;
  if (o.workload == "paper_wi") {
    add_paper_cells(cells, proto::Protocol::WI, o.seed, s);
  } else if (o.workload == "paper_update") {
    add_paper_cells(cells, proto::Protocol::PU, o.seed, s);
    add_paper_cells(cells, proto::Protocol::CU, o.seed, s);
  } else if (o.workload == "stress_observed") {
    add_stress_cells(cells, o.seed, s);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload +
                                " (paper_wi, paper_update, stress_observed)");
  }
  return cells;
}

enum class Variant { Plain, Traced, Toggled, Profiled };

const char* to_string(Variant v) {
  switch (v) {
    case Variant::Plain: return "plain";
    case Variant::Traced: return "traced";
    case Variant::Toggled: return "toggled";
    case Variant::Profiled: return "profiled";
  }
  return "?";
}

harness::MachineConfig variant_config(harness::MachineConfig cfg, Variant v) {
  switch (v) {
    case Variant::Plain: break;
    case Variant::Traced: cfg.obs.host_metrics = true; break;
    case Variant::Toggled: {
      const bool on = !cfg.obs.check_invariants;
      cfg.obs.check_invariants = on;
      cfg.obs.sharing = on;
      cfg.obs.hot_blocks = on;
      break;
    }
    case Variant::Profiled: cfg.obs.profile = true; break;
  }
  return cfg;
}

/// FNV-1a over the simulated results: cycles and every traffic counter.
std::uint64_t digest(const harness::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const stats::Counters& c = r.counters;
  mix(r.cycles);
  for (std::uint64_t v : c.misses.by) mix(v);
  mix(c.misses.exclusive_requests);
  for (std::uint64_t v : c.updates.by) mix(v);
  mix(c.net.messages);
  mix(c.net.flits);
  mix(c.net.hops);
  mix(c.net.local);
  for (std::uint64_t v : c.net.by_type) mix(v);
  mix(c.mem.shared_reads);
  mix(c.mem.shared_writes);
  mix(c.mem.read_hits);
  mix(c.mem.write_hits);
  mix(c.mem.atomics);
  mix(c.mem.write_buffer_stalls);
  mix(c.mem.fence_stall_cycles);
  return h;
}

/// Host-speed probe: a fixed chunk of simulator-like host work -- a small
/// discrete-event loop over a binary heap, virtual dispatch, a hash map
/// and small heap allocations -- that shares no code with the simulator.
/// On a shared host its time tracks the drifting host speed, and the
/// end-to-end times are quoted at a reference speed by dividing by it
/// (NOTES.md).
class SpeedProbe {
public:
  /// Chunk time on the reference host the scaled metrics are quoted at.
  static constexpr double kReferenceS = 1.5e-3;

  /// Run one chunk; returns its host seconds.
  double run() {
    struct Ev {
      std::uint64_t t;
      std::uint32_t id;
      bool operator>(const Ev& o) const { return t > o.t; }
    };
    const std::uint64_t t0 = now_ns();
    std::vector<std::unique_ptr<Handler>> handlers;
    for (int i = 0; i < 64; ++i) {
      if (i % 3 == 0) handlers.push_back(std::make_unique<Mixer>());
      else handlers.push_back(std::make_unique<Lcg>());
    }
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::uint32_t i = 0; i < 64; ++i) q.push({i, i});
    std::uint64_t acc = 0;
    for (int it = 0; it < 20'000; ++it) {
      const Ev e = q.top();
      q.pop();
      const std::uint64_t d = handlers[e.id]->fire(e.t);
      std::uint64_t& slot = table[(e.id * 131 + (e.t & 255)) & 1023];
      slot += d;
      if (slot & 1) {
        auto block = std::make_unique<std::uint64_t[]>(6);
        block[0] = slot;
        acc += block[0];
      }
      q.push({e.t + 1 + d + (slot & 7), static_cast<std::uint32_t>((e.id + d) & 63)});
    }
    sink_ = acc;
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

private:
  struct Handler {
    virtual ~Handler() = default;
    virtual std::uint64_t fire(std::uint64_t t) = 0;
  };
  struct Lcg : Handler {
    std::uint64_t s = 1;
    std::uint64_t fire(std::uint64_t t) override {
      s = s * 6364136223846793005ULL + t;
      return s >> 60;
    }
  };
  struct Mixer : Handler {
    std::uint64_t s = 7;
    std::uint64_t fire(std::uint64_t t) override {
      s ^= t + (s << 6) + (s >> 2);
      return (s >> 61) + 1;
    }
  };

  volatile std::uint64_t sink_ = 0;
};

struct Span {
  std::uint64_t id = 0, parent = 0;
  std::string name;
  std::string cell;
  std::uint64_t start_ns = 0, end_ns = 0;
};

/// One round's aggregates over its cells.
struct Round {
  double setup_s = 0.0;  ///< summed Machine construction time
  double run_s = 0.0;    ///< summed experiment-call time
  std::vector<double> cell_s;  ///< each cell's experiment-call time
  double probe_s = 0.0;  ///< summed SpeedProbe chunk time, one per cell
  std::size_t probes = 0;
  Cycle cycles = 0;
  stats::Counters counters;
  std::uint64_t checks = 0;
  obs::HostPerfReport host;  ///< merged; enabled only when traced
  std::array<Cycle, obs::kCycleCats> profile{};
};

class Bench {
public:
  Bench(std::vector<Cell> cells, std::map<std::string, std::uint64_t> recorded,
        bool check_recorded)
      : cells_(std::move(cells)), recorded_(std::move(recorded)),
        check_recorded_(check_recorded), first_(cells_.size(), 0) {}

  Round run(Variant v, std::vector<Span>* spans) {
    Round r;
    std::uint64_t round_id = 0;
    if (spans) {
      round_id = ++next_span_;
      spans->push_back({round_id, 0, std::string("round/") + to_string(v), "",
                        now_ns(), 0});
    }
    const std::size_t round_idx = spans ? spans->size() - 1 : 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      harness::SweepJob job = cells_[i].job;
      job.machine = variant_config(job.machine, v);

      const std::uint64_t t0 = now_ns();
      auto machine = std::make_unique<harness::Machine>(job.machine);
      const std::uint64_t t1 = now_ns();
      machine.reset();
      const std::uint64_t t2 = now_ns();
      const harness::SweepResult res = harness::run_sweep_job(job);
      const std::uint64_t t3 = now_ns();

      r.setup_s += static_cast<double>(t1 - t0) * 1e-9;
      r.run_s += static_cast<double>(t3 - t2) * 1e-9;
      r.cell_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
      r.probe_s += probe_.run();
      ++r.probes;
      if (spans) {
        spans->push_back({++next_span_, round_id, "harness::Machine", job.name, t0, t1});
        spans->push_back({++next_span_, round_id, cells_[i].entry, job.name, t2, t3});
      }
      ++attempted_;
      if (!res.ok) {
        fail(job.name, v, res.error);
        continue;
      }
      check(i, v, digest(res.run));
      r.cycles += res.run.cycles;
      stats::accumulate(r.counters, res.run.counters);
      r.checks += res.run.invariant_checks;
      if (res.run.host.enabled()) r.host.merge(res.run.host);
      if (res.run.profile.enabled()) {
        const auto totals = res.run.profile.totals();
        for (std::size_t c = 0; c < totals.size(); ++c) r.profile[c] += totals[c];
      }
    }
    if (spans) (*spans)[round_idx].end_ns = now_ns();
    return r;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }
  /// Every distinct (variant, cell, digest) seen, for --print-digests.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>, std::uint64_t>&
  seen() const noexcept {
    return seen_;
  }

private:
  void fail(const std::string& cell, Variant v, const std::string& why) {
    ++failed_;
    if (failed_ <= 5)
      std::fprintf(stderr, "ccbench: cell %s (%s) failed: %s\n", cell.c_str(),
                   to_string(v), why.c_str());
  }

  void check(std::size_t i, Variant v, std::uint64_t d) {
    const std::string& name = cells_[i].job.name;
    seen_[{to_string(v), name}] = d;
    if (first_[i] == 0) {
      first_[i] = d;
      if (check_recorded_) {
        const auto it = recorded_.find(name);
        if (it == recorded_.end())
          return fail(name, v, "no recorded digest");
        if (it->second != d)
          return fail(name, v, "simulated-results digest differs from the recorded one");
      }
    } else if (first_[i] != d) {
      fail(name, v, "simulated-results digest differs from the first round's");
    }
  }

  std::vector<Cell> cells_;
  std::map<std::string, std::uint64_t> recorded_;
  bool check_recorded_;
  std::vector<std::uint64_t> first_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> seen_;
  SpeedProbe probe_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t next_span_ = 0;
};

/// Recorded digests for `workload`: lines "workload cell hex", '#' comments.
std::map<std::string, std::uint64_t> load_digests(const std::string& path,
                                                  const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open digests file: " + path);
  std::map<std::string, std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char w[64], cell[128], hex[32];
    if (std::sscanf(line.c_str(), "%63s %127s %31s", w, cell, hex) != 3)
      throw std::runtime_error("bad digests line: " + line);
    if (workload == w) out[cell] = std::strtoull(hex, nullptr, 16);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double elapsed_s() { return static_cast<double>(now_ns()) * 1e-9; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr std::size_t kMinRounds = 3;

std::vector<Metric> end_to_end(Bench& b, const Options& o) {
  // Host times are quoted at the reference host speed: each round's times
  // are divided by the round's mean probe time over SpeedProbe::kReferenceS.
  // Throughput comes from each cell's best scaled time over the rounds,
  // the run least slowed by other work on a shared host (NOTES.md).
  std::vector<double> best(b.cells().size(), std::numeric_limits<double>::infinity());
  std::vector<double> setup;
  Cycle cycles = 0;
  while (elapsed_s() < o.seconds || setup.size() < kMinRounds) {
    const Round r = b.run(Variant::Plain, nullptr);
    const double slowdown =
        r.probe_s / static_cast<double>(r.probes) / SpeedProbe::kReferenceS;
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], r.cell_s[i] / slowdown);
    setup.push_back(r.setup_s / slowdown);
    cycles = r.cycles;
  }
  double best_s = 0.0;
  for (double t : best) best_s += t;
  std::fprintf(stderr, "ccbench: %zu timed rounds\n", setup.size());
  return {{"sim_mcycles_per_s", ratio(static_cast<double>(cycles), best_s) * 1e-6, "Mcyc/s"},
          {"setup_s", median(setup), "s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"}};
}

std::vector<Metric> per_layer(Bench& b, const Options& o, std::vector<Span>& spans) {
  std::vector<double> plain_s, traced_s, toggled_s;
  std::vector<double> ns_per_event, loop, proto_sh, proto_ns, net_sh, obs_sh;
  Round plain, traced;
  for (std::size_t i = 0; elapsed_s() < o.seconds || i < 3 * kMinRounds; ++i) {
    switch (i % 3) {
      case 0:
        plain = b.run(Variant::Plain, nullptr);
        plain_s.push_back(plain.run_s);
        break;
      case 1: {
        traced = b.run(Variant::Traced, &spans);
        traced_s.push_back(traced.run_s);
        const obs::HostPerfReport& h = traced.host;
        ns_per_event.push_back(ratio(static_cast<double>(h.host_ns),
                                     static_cast<double>(h.events_executed)));
        loop.push_back(h.share(obs::HostCat::EventLoop));
        proto_sh.push_back(h.share(obs::HostCat::Protocol));
        proto_ns.push_back(ratio(
            static_cast<double>(h.ns_by[static_cast<std::size_t>(obs::HostCat::Protocol)]),
            static_cast<double>(h.messages)));
        net_sh.push_back(h.share(obs::HostCat::Network));
        obs_sh.push_back(h.share(obs::HostCat::ObsHooks));
        break;
      }
      default: toggled_s.push_back(b.run(Variant::Toggled, nullptr).run_s); break;
    }
  }
  const Round prof = b.run(Variant::Profiled, nullptr);

  std::vector<double> construct_us;
  for (const Span& s : spans)
    if (s.name == "harness::Machine")
      construct_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);

  // Observer cost: the share of the observed configuration's time that the
  // observers take, whichever of plain/toggled has them on.
  const bool observed = b.cells().front().job.machine.obs.check_invariants;
  const double t_on = median(observed ? plain_s : toggled_s);
  const double t_off = median(observed ? toggled_s : plain_s);

  const obs::HostPerfReport& h = traced.host;
  const stats::Counters& c = plain.counters;
  const auto cyc = [&](obs::CycleCat k) {
    return static_cast<double>(prof.profile[static_cast<std::size_t>(k)]);
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", d(h.events_executed), "count"},
      {"sim.events_per_kcycle", ratio(d(h.events_executed), d(h.sim_cycles) * 1e-3), "1/kcyc"},
      {"sim.ns_per_event", median(ns_per_event), "ns"},
      {"sim.loop_share", median(loop), "ratio"},
      {"sim.queue_p50", d(h.queue_depth.percentile(0.50)), "events"},
      {"sim.queue_p99", d(h.queue_depth.percentile(0.99)), "events"},
      {"sim.queue_peak", d(h.queue_peak), "events"},
      {"sim.frames", d(h.frames), "count"},
      {"proto.share", median(proto_sh), "ratio"},
      {"proto.ns_per_msg", median(proto_ns), "ns"},
      {"net.share", median(net_sh), "ratio"},
      {"net.messages", d(c.net.messages), "count"},
      {"net.local", d(c.net.local), "count"},
      {"net.flits", d(c.net.flits), "count"},
      {"net.hops_per_msg", ratio(d(c.net.hops), d(c.net.messages)), "hops"},
      {"obs.share", median(obs_sh), "ratio"},
      {"obs.checks", d(plain.checks), "count"},
      {"obs.observer_cost", 1.0 - ratio(t_off, t_on), "ratio"},
      {"obs.host_perf_overhead", ratio(median(traced_s), median(plain_s)), "ratio"},
      {"mem.ops", d(c.mem.shared_reads + c.mem.shared_writes + c.mem.atomics), "count"},
      {"mem.read_hit_ratio", ratio(d(c.mem.read_hits), d(c.mem.shared_reads)), "ratio"},
      {"mem.wb_stall_cycles", d(c.mem.write_buffer_stalls), "cycles"},
      {"stats.misses", d(c.misses.total()), "count"},
      {"stats.useful_miss_ratio", ratio(d(c.misses.useful()), d(c.misses.total())), "ratio"},
      {"stats.updates", d(c.updates.total()), "count"},
      {"stats.useful_update_ratio", ratio(d(c.updates.useful()), d(c.updates.total())), "ratio"},
      {"sync.lock_cycles", cyc(obs::CycleCat::LockWait), "cycles"},
      {"sync.barrier_cycles", cyc(obs::CycleCat::BarrierWait), "cycles"},
      {"sync.reduction_cycles", cyc(obs::CycleCat::ReductionWait), "cycles"},
      {"harness.construct_us", median(construct_us), "us"},
  };
}

void write_spans(const std::string& path, const Options& o,
                 const std::vector<Span>& spans, const std::vector<Metric>& metrics) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open spans file: " + path);
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("workload").value(o.workload);
  w.key("seed").value(o.seed);
  w.key("spans").begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.key("id").value(s.id);
    w.key("parent").value(s.parent);
    w.key("name").value(s.name);
    w.key("cell").value(s.cell);
    w.key("start_ns").value(s.start_ns);
    w.key("end_ns").value(s.end_ns);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << '\n';
  if (!os) throw std::runtime_error("failed writing spans file: " + path);
}

void print_result(const Bench& b, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              b.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(b.attempted()),
              static_cast<unsigned long long>(b.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Match `--flag=value` or `--flag value`.
bool take_value(const std::string& flag, int argc, char** argv, int& i,
                std::string& value) {
  const std::string a = argv[i];
  if (a.rfind(flag + "=", 0) == 0) {
    value = a.substr(flag.size() + 1);
    return true;
  }
  if (a == flag) {
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    value = argv[++i];
    return true;
  }
  return false;
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || s.find_first_of("+-") != std::string::npos)
    throw std::invalid_argument(std::string(what) + ": bad number \"" + s + '"');
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (take_value("--workload", argc, argv, i, v)) {
      o.workload = v;
    } else if (take_value("--seed", argc, argv, i, v)) {
      o.seed = parse_u64(v, "--seed");
    } else if (take_value("--seconds", argc, argv, i, v)) {
      o.seconds = static_cast<double>(parse_u64(v, "--seconds"));
    } else if (take_value("--trace", argc, argv, i, v)) {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (take_value("--digests", argc, argv, i, v)) {
      o.digests = v;
    } else if (take_value("--spans", argc, argv, i, v)) {
      o.spans = v;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--print-digests") {
      o.print_digests = true;
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    std::map<std::string, std::uint64_t> recorded;
    if (!o.digests.empty()) recorded = load_digests(o.digests, o.workload);
    Bench b(build_cells(o), std::move(recorded), !o.digests.empty());

    b.run(Variant::Plain, nullptr);  // warm-up; checked, not timed
    std::vector<Span> spans;
    const std::vector<Metric> metrics =
        o.trace ? per_layer(b, o, spans) : end_to_end(b, o);
    if (o.trace && !o.spans.empty()) write_spans(o.spans, o, spans, metrics);

    if (o.print_digests)
      for (const auto& [key, d] : b.seen())
        std::printf("digest %s %s %s %016llx\n", o.workload.c_str(), key.first.c_str(),
                    key.second.c_str(), static_cast<unsigned long long>(d));
    print_result(b, metrics);
    return b.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccbench: error: %s\n", e.what());
    return 2;
  }
}
