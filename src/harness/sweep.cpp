#include "harness/sweep.hpp"

#include "harness/obs_session.hpp"
#include "harness/progress.hpp"
#include "stats/json.hpp"

#include <atomic>
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace ccsim::harness {

std::string_view to_string(ConstructFamily f) noexcept {
  switch (f) {
    case ConstructFamily::Lock: return "lock";
    case ConstructFamily::Barrier: return "barrier";
    case ConstructFamily::Reduction: return "reduction";
  }
  return "?";
}

std::string_view to_string(SweepResult::FailKind k) noexcept {
  switch (k) {
    case SweepResult::FailKind::None: return "none";
    case SweepResult::FailKind::Deadlock: return "deadlock";
    case SweepResult::FailKind::Budget: return "budget";
    case SweepResult::FailKind::Invariant: return "invariant";
    case SweepResult::FailKind::Other: return "other";
  }
  return "?";
}

SweepResult run_sweep_job(const SweepJob& job) {
  SweepResult r;
  r.name = job.name;
  try {
    if (job.runner) {
      r.run = job.runner(job.machine);
    } else {
      switch (job.family) {
        case ConstructFamily::Lock:
          r.run = run_lock_experiment(job.machine, job.lock, job.lock_params);
          break;
        case ConstructFamily::Barrier:
          r.run = run_barrier_experiment(job.machine, job.barrier,
                                         job.barrier_params);
          break;
        case ConstructFamily::Reduction:
          r.run = run_reduction_experiment(job.machine, job.reduction,
                                           job.reduction_params);
          break;
      }
    }
    r.ok = true;
  } catch (const DeadlockError& e) {
    r.fail = SweepResult::FailKind::Deadlock;
    r.error = e.what();
  } catch (const BudgetError& e) {
    r.fail = SweepResult::FailKind::Budget;
    r.error = e.what();
  } catch (const obs::InvariantViolation& e) {
    r.fail = SweepResult::FailKind::Invariant;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.fail = SweepResult::FailKind::Other;
    r.error = e.what();
  } catch (...) {
    r.fail = SweepResult::FailKind::Other;
    r.error = "unknown exception";
  }
  return r;
}

std::vector<SweepResult> run_sweep(const std::vector<SweepJob>& jobs,
                                   const SweepOptions& opts) {
  std::vector<SweepResult> results(jobs.size());
  if (jobs.empty()) return results;

  unsigned workers = opts.jobs != 0 ? opts.jobs
                                    : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min<unsigned>(workers, static_cast<unsigned>(jobs.size()));

  if (workers > 1) {
    for (const SweepJob& j : jobs)
      if (j.machine.obs.sink != nullptr)
        throw std::invalid_argument(
            "sweep: job \"" + j.name +
            "\" carries a trace sink; sinks are not thread-safe, run with "
            "jobs=1");
  }

  std::optional<ProgressReporter> progress;
  if (opts.progress) progress.emplace(std::cerr, jobs.size());
  if (workers == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_sweep_job(jobs[i]);
      if (progress) progress->update(i + 1);
    }
    return results;
  }

  // Work-stealing by shared index: each worker claims the next unclaimed
  // job. results[i] slots are disjoint per job, and the jthread joins at
  // scope exit publish every slot before we return.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&jobs, &results, &next, &done, &progress] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= jobs.size()) return;
          results[i] = run_sweep_job(jobs[i]);
          const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
          if (progress) progress->update(d);
        }
      });
    }
  }
  return results;
}

std::size_t print_failures(const std::vector<SweepResult>& results) {
  std::size_t failed = 0;
  for (const SweepResult& r : results) {
    if (r.ok) continue;
    ++failed;
    std::fprintf(stderr, "failed cell %s [%s]: %s\n", r.name.c_str(),
                 std::string(to_string(r.fail)).c_str(), r.error.c_str());
  }
  return failed;
}

void write_cell_json(stats::JsonWriter& w, const SweepResult& r) {
  w.begin_object();
  w.key("name").value(r.name);
  w.key("ok").value(r.ok);
  if (r.ok) {
    write_run_fields(w, r.run);
  } else {
    w.key("fail_kind").value(to_string(r.fail));
    w.key("error").value(r.error);
  }
  w.end_object();
}

std::string_view GridCell::tag() const noexcept {
  switch (family) {
    case ConstructFamily::Lock: return harness::tag(lock);
    case ConstructFamily::Barrier: return harness::tag(barrier);
    case ConstructFamily::Reduction: return harness::tag(reduction);
  }
  return "?";
}

std::string_view GridCell::kind() const noexcept {
  switch (family) {
    case ConstructFamily::Lock: return to_string(lock);
    case ConstructFamily::Barrier: return to_string(barrier);
    case ConstructFamily::Reduction: return to_string(reduction);
  }
  return "?";
}

std::vector<SweepJob> grid_jobs(const Grid& g,
                                const std::function<std::string(const GridCell&)>& name) {
  std::vector<std::optional<std::uint64_t>> seeds(g.seeds.begin(), g.seeds.end());
  if (seeds.empty()) seeds.emplace_back();
  std::vector<SweepJob> jobs;
  GridCell c;
  const auto emit = [&](std::optional<std::uint64_t> seed) {
    c.seed = seed;
    SweepJob j;
    j.name = name(c);
    j.machine = g.machine;
    j.machine.protocol = c.protocol;
    j.machine.nprocs = c.procs;
    if (c.cu_threshold) j.machine.cu_threshold = *c.cu_threshold;
    j.family = c.family;
    j.lock = c.lock;
    j.barrier = c.barrier;
    j.reduction = c.reduction;
    j.lock_params.total_acquires = scaled(g.scale, 32000);
    j.barrier_params.episodes = scaled(g.scale, 5000);
    j.reduction_params.rounds = scaled(g.scale, 5000);
    if (c.seed) j.lock_params.seed = j.reduction_params.seed = *c.seed;
    jobs.push_back(std::move(j));
  };
  for (proto::Protocol p : g.protocols) {
    c.protocol = p;
    // The CU threshold is inert under WI/PU; sweeping it there would emit
    // duplicate cells under different names.
    std::vector<std::optional<unsigned>> thresholds{std::nullopt};
    if (p == proto::Protocol::CU)
      thresholds.assign(g.cu_thresholds.begin(), g.cu_thresholds.end());
    for (const std::optional<unsigned>& t : thresholds) {
      c.cu_threshold = t;
      for (unsigned n : g.procs) {
        c.procs = n;
        for (ConstructFamily f : g.families) {
          c.family = f;
          switch (f) {
            case ConstructFamily::Lock:
              for (LockKind k : g.locks) {
                c.lock = k;
                for (const auto& s : seeds) emit(s);
              }
              break;
            case ConstructFamily::Barrier:
              for (BarrierKind k : g.barriers) {
                c.barrier = k;
                emit(std::nullopt);
              }
              break;
            case ConstructFamily::Reduction:
              for (ReductionKind k : g.reductions) {
                c.reduction = k;
                for (const auto& s : seeds) emit(s);
              }
              break;
          }
        }
      }
    }
  }
  return jobs;
}

void write_output(const std::string& path,
                  const std::function<void(std::ostream&)>& fn) {
  if (path == "-") return fn(std::cout);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open output file: " + path);
  fn(os);
}

void ToolOptions::write(std::string_view what,
                        const std::function<void(std::ostream&)>& fn) const {
  if (out.empty()) return;
  write_output(out, fn);
  if (!quiet && out != "-")
    std::fprintf(stderr, "wrote %s to %s\n", std::string(what).c_str(), out.c_str());
}

int tool_main(int argc, char** argv, std::string_view prog, Flags flags,
              ToolOptions& o, const std::function<int()>& body, int error_code) {
  try {
    flags.push_back(
        {"--jobs", "N", [&o](const std::string& v) { o.jobs = parse_unsigned(v); }});
    flags.push_back({"--out", "FILE", [&o](const std::string& v) { o.out = v; }});
    flags.push_back({"--progress", "", [&o](const std::string&) { o.progress = true; }});
    flags.push_back({"--quiet", "", [&o](const std::string&) { o.quiet = true; }});
    parse_flags(argc, argv, prog, flags);
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return error_code;
  }
}

} // namespace ccsim::harness
