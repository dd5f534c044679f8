// Parallel sweep engine: run independent simulation configs concurrently.
//
// Every bench walks a (protocol x construct x machine size) grid of
// simulations that are deterministic, fully independent event-loop runs --
// there is no shared mutable state between two Machines. The sweep engine
// exploits that: a SweepJob names one cell of the grid, run_sweep() fans
// the jobs out over a pool of std::jthread workers (each job constructs
// its own Machine inside the worker), and results come back buffered
// per-job in submission order, so output built from them is byte-identical
// to a sequential run regardless of completion order or worker count.
//
// Failure containment: a job that throws is reported as a failed cell
// carrying the exception text (SweepResult::ok == false) instead of taking
// down the sweep -- the remaining cells still run and the caller decides
// whether a failed cell is fatal.
//
// Thread-safety contract: the simulator keeps all state inside the
// Machine, so concurrent jobs are safe as long as they do not share
// attachments. The one sharable attachment is ObsConfig::sink (trace
// sinks write to one stream); run_sweep() therefore rejects any job with
// a sink when more than one worker would run. Per-machine observability
// (profile, sampling, hot blocks) is safe and allowed.
//
// Grid construction: a Grid is the protocol x CU-threshold x machine-size x
// construct x seed space the paper's figures 8-16 slice, and grid_jobs()
// expands it into SweepJobs in one fixed order. ccsweep, ccperf, ccadvise
// and run_trajectory are report modes over it; each names its cells.
#pragma once

#include "harness/cli.hpp"
#include "harness/workloads.hpp"

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::stats {
class JsonWriter;
}

namespace ccsim::harness {

/// Which experiment family a SweepJob runs (the paper's three synthetic
/// programs, sections 4.1-4.3).
enum class ConstructFamily : std::uint8_t { Lock, Barrier, Reduction };
inline constexpr ConstructFamily kFamilies[] = {
    ConstructFamily::Lock, ConstructFamily::Barrier, ConstructFamily::Reduction};

[[nodiscard]] std::string_view to_string(ConstructFamily f) noexcept;

/// One cell of a sweep grid: everything needed to run one simulation.
/// Only the member selected by `family` (and its params) is consulted.
struct SweepJob {
  std::string name;       ///< cell label, e.g. "fig08/tk/WI/p16"
  MachineConfig machine;  ///< protocol, nprocs, cu_threshold, obs, ...
  ConstructFamily family = ConstructFamily::Lock;
  LockKind lock = LockKind::Ticket;
  BarrierKind barrier = BarrierKind::Central;
  ReductionKind reduction = ReductionKind::Sequential;
  LockParams lock_params{};
  BarrierParams barrier_params{};
  ReductionParams reduction_params{};
  /// Custom experiment (tools/ccstress): when set, run_sweep_job invokes
  /// this instead of the family dispatch above. Must be safe to call from
  /// a worker thread (i.e. keep all state inside the Machine it builds).
  std::function<RunResult(const MachineConfig&)> runner;
};

/// The outcome of one cell: either a RunResult or an exception text.
struct SweepResult {
  std::string name;
  bool ok = false;
  /// What kind of failure a !ok cell is: a watchdog/deadlock trip, a run
  /// that outlived its max_cycles budget, a coherence-invariant violation,
  /// or any other exception. Callers (the ccstress/ccsweep tools) map
  /// these to distinct exit codes.
  enum class FailKind : std::uint8_t { None, Deadlock, Budget, Invariant, Other };
  FailKind fail = FailKind::None;
  std::string error;  ///< exception text when !ok
  RunResult run;      ///< valid only when ok
};

[[nodiscard]] std::string_view to_string(SweepResult::FailKind k) noexcept;

struct SweepOptions {
  /// Worker threads. 1 = in-caller sequential execution (still with
  /// failure containment); 0 = one per hardware thread. The pool never
  /// exceeds the number of jobs.
  unsigned jobs = 1;
  /// Paint a live cells-done line on stderr (harness/progress.hpp; only
  /// when stderr is a terminal).
  bool progress = false;
};

/// Run one job synchronously, containing any exception as a failed cell.
[[nodiscard]] SweepResult run_sweep_job(const SweepJob& job);

/// Run every job and return results in submission order (results[i] is
/// jobs[i]). Throws std::invalid_argument before running anything if
/// more than one worker would run and a job carries a trace sink (the
/// only cross-job shared state; see the header comment).
[[nodiscard]] std::vector<SweepResult> run_sweep(
    const std::vector<SweepJob>& jobs, const SweepOptions& opts = {});

/// Report each failed cell on stderr and return how many failed.
std::size_t print_failures(const std::vector<SweepResult>& results);

/// One cell object of the ccsweep/ccstress documents: name, ok, and the
/// run fields (write_run_fields) or fail_kind and error.
void write_cell_json(stats::JsonWriter& w, const SweepResult& r);

/// A sweep grid. The defaults are ccsweep's.
struct Grid {
  std::vector<proto::Protocol> protocols{proto::Protocol::WI, proto::Protocol::PU,
                                         proto::Protocol::CU};
  std::vector<unsigned> cu_thresholds{4};  ///< multiplies the CU cells only
  std::vector<unsigned> procs{16};
  std::vector<ConstructFamily> families{std::begin(kFamilies), std::end(kFamilies)};
  std::vector<LockKind> locks{std::begin(kLockKinds), std::end(kLockKinds)};
  std::vector<BarrierKind> barriers{BarrierKind::Central, BarrierKind::Dissemination,
                                    BarrierKind::Tree};
  std::vector<ReductionKind> reductions{ReductionKind::Sequential,
                                        ReductionKind::Parallel};
  /// Multiplies the lock and reduction cells (barriers take no seed);
  /// empty = one cell with the construct's default seed.
  std::vector<std::uint64_t> seeds;
  double scale = 0.02;  ///< applied to the paper's iteration counts
  /// Base machine; each cell sets protocol, nprocs and (CU) cu_threshold.
  MachineConfig machine;
};

/// The coordinates of one grid cell.
struct GridCell {
  proto::Protocol protocol = proto::Protocol::WI;
  std::optional<unsigned> cu_threshold;  ///< CU cells only
  unsigned procs = 0;
  ConstructFamily family = ConstructFamily::Lock;
  LockKind lock = LockKind::Ticket;            ///< when family == Lock
  BarrierKind barrier = BarrierKind::Central;  ///< when family == Barrier
  ReductionKind reduction = ReductionKind::Sequential;  ///< when Reduction
  std::optional<std::uint64_t> seed;  ///< lock/reduction cells of a seeded grid
  /// The construct's tag ("tk", "cb", "pr") and long name ("ticket", ...).
  [[nodiscard]] std::string_view tag() const noexcept;
  [[nodiscard]] std::string_view kind() const noexcept;
};

/// Expand `g` in the order protocol, CU threshold, procs, family, kind,
/// seed; `name` labels each cell.
[[nodiscard]] std::vector<SweepJob> grid_jobs(
    const Grid& g, const std::function<std::string(const GridCell&)>& name);

/// The flags and output every sweep tool shares.
struct ToolOptions {
  unsigned jobs = 1;      ///< --jobs N (0 = one per hardware thread)
  std::string out;        ///< --out FILE ("-" = stdout, "" = none)
  bool progress = false;  ///< --progress
  bool quiet = false;     ///< --quiet: no progress line, no confirmations
  [[nodiscard]] SweepOptions sweep() const { return {jobs, progress && !quiet}; }
  /// Write through `fn` to `out` (nothing when empty) and, unless quiet or
  /// writing to stdout, confirm "wrote WHAT to FILE" on stderr.
  void write(std::string_view what, const std::function<void(std::ostream&)>& fn) const;
};

/// Write through `fn` to `path` ("-" = stdout); throws if it cannot open.
void write_output(const std::string& path, const std::function<void(std::ostream&)>& fn);

/// A tool's main: parse `flags` plus --jobs/--out/--progress/--quiet into
/// `o`, then return body(). Any exception is reported as "error: ..." on
/// stderr and returns `error_code`.
int tool_main(int argc, char** argv, std::string_view prog, Flags flags,
              ToolOptions& o, const std::function<int()>& body, int error_code = 2);

} // namespace ccsim::harness
