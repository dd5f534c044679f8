// Command-line front end shared by the benches, tools and examples.
//
// Each binary declares one table of Flags and hands it to parse_flags().
// Every valued flag accepts `--flag value` and `--flag=value`; a switch
// (empty metavar) takes no value. An unknown flag, a missing value, a value
// given to a switch, or a value the setter rejects throws
// std::invalid_argument naming the flag, and --help prints a usage line
// generated from the table. The value parsers below are the only copies in
// the tree; in particular parse_nodes() is the one place that validates a
// node count, against the full-map directory's [1, mem::kMaxNodes].
//
// Every figure bench accepts (parse_bench_args):
//   --paper       run the paper's full iteration counts (32000 acquires,
//                 5000 episodes/rounds); the default is a scaled-down run
//                 whose steady-state averages match
//   --scale X     explicit scale factor (0 < X <= 1)
//   --procs a,b   override the machine-size sweep (each in [1, 64])
//   --csv         emit CSV instead of the aligned table
//   --jobs N      run the sweep's independent cells on N worker threads
//                 (0 = one per hardware thread; default 1 = sequential).
//                 Output is byte-identical for every N. Observability
//                 flags stream per-run output and therefore force
//                 sequential execution (a note is printed).
// Observability (obs_flags; everything off by default; the default output
// is unchanged):
//   --json FILE           write machine-readable metrics (counters, interval
//                         samples, hot-block list) for every run
//   --trace-out FILE      write a structured event trace
//   --trace-format F      ring | jsonl | perfetto (default perfetto)
//   --sample-interval N   snapshot counter deltas every N cycles
//   --hot-top K           with --json: report the K hottest blocks
//                         (default 16); rejected without --json
//   --profile             cycle-accounting profiler: per-category stall
//                         breakdown and sync-phase latency histograms,
//                         printed per run and embedded in --json output
//   --host-metrics        host-performance telemetry: simulator throughput,
//                         event-queue depth stats, allocation counters and
//                         host-time attribution, printed per run and added
//                         as a "host" section to --json output. Never
//                         changes simulated results.
//   --sharing             per-block sharing-pattern classification and
//                         protocol advice: taxonomy table and projected
//                         WI/PU/CU costs, printed per run and added as a
//                         "sharing" section to --json output. Never
//                         changes simulated results.
// The REPRO_SCALE environment variable, if set, provides the default scale.
#pragma once

#include "obs/trace.hpp"
#include "proto/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::harness {

/// One command-line flag.
struct Flag {
  std::string name;     ///< "--procs"
  std::string metavar;  ///< value placeholder for the usage line; "" = switch
  /// Parses and stores the value ("" for a switch). Throws
  /// std::invalid_argument to reject it; parse_flags adds the flag name.
  std::function<void(const std::string&)> set;
};
using Flags = std::vector<Flag>;

/// "usage: PROG [--a X] [--b] ...", wrapped at 80 columns.
[[nodiscard]] std::string usage(std::string_view prog, const Flags& table);

/// Apply argv[1..argc) to `table` in order. --help or -h prints
/// usage(prog, table) to stdout and exits 0. With `positional`, arguments
/// that do not start with '-' (and are not a flag's value) are appended to
/// it instead of rejected.
void parse_flags(int argc, char** argv, std::string_view prog, const Flags& table,
                 std::vector<std::string>* positional = nullptr);

/// argv[0] without its directory and extension ("fig08_lock_latency").
[[nodiscard]] std::string program_name(const char* argv0);

// --- value parsers (each throws std::invalid_argument on a bad value) ---

/// A whole-string unsigned integer, decimal or 0x-prefixed hex; signs,
/// blanks and trailing characters are rejected.
[[nodiscard]] std::uint64_t parse_u64(std::string_view s);
/// parse_u64 narrowed to `unsigned` (rejects values that do not fit).
[[nodiscard]] unsigned parse_unsigned(std::string_view s);
/// A node count in [1, mem::kMaxNodes].
[[nodiscard]] unsigned parse_nodes(std::string_view s);
/// A scale factor in (0, 1].
[[nodiscard]] double parse_scale(std::string_view s);
/// A finite number > 0.
[[nodiscard]] double parse_positive(std::string_view s);
/// A percentage in [0, 100].
[[nodiscard]] double parse_percent(std::string_view s);
/// WI, PU or CU (any case).
[[nodiscard]] proto::Protocol parse_protocol(std::string_view s);
/// Split a comma list; rejects an empty list or an empty item.
[[nodiscard]] std::vector<std::string> split_list(std::string_view s);

/// Parse every item of a comma list with `item`.
template <class Item>
[[nodiscard]] auto parse_list(std::string_view s, Item item) {
  std::vector<decltype(item(std::string_view{}))> out;
  for (const std::string& v : split_list(s)) out.push_back(item(v));
  return out;
}

/// `v`, rejecting zero.
template <class T>
[[nodiscard]] T positive(T v) {
  if (v == 0) throw std::invalid_argument("must be > 0");
  return v;
}

/// The element of `all` whose name(element) equals `s` (any case).
template <class Range, class Name>
[[nodiscard]] auto parse_choice(std::string_view s, const Range& all, Name name) {
  std::string choices;
  for (const auto& k : all) {
    const std::string_view n = name(k);
    if (n.size() == s.size() &&
        std::equal(n.begin(), n.end(), s.begin(), [](unsigned char a, unsigned char b) {
          return std::tolower(a) == std::tolower(b);
        }))
      return k;
    choices += choices.empty() ? "" : ", ";
    choices += n;
  }
  throw std::invalid_argument("'" + std::string(s) + "' is not one of " + choices);
}

/// Apply `scale` to one of the paper's iteration counts (floor 32).
[[nodiscard]] std::uint64_t scaled(double scale, std::uint64_t paper_count);

// --- the figure benches ---

/// Observability-related command-line options (shared by the benches and
/// examples/protocol_explorer).
struct ObsOptions {
  std::string json_path;   ///< --json: metrics JSON output ("" = off)
  std::string trace_path;  ///< --trace-out: trace file ("" = off)
  obs::TraceFormat trace_format = obs::TraceFormat::Perfetto;
  Cycle sample_interval = 0;  ///< --sample-interval (0 = off)
  std::optional<std::size_t> hot_top_k; ///< --hot-top (needs --json)
  bool profile = false;       ///< --profile (cycle accounting)
  bool host_metrics = false;  ///< --host-metrics (host telemetry)
  bool sharing = false;       ///< --sharing (sharing-pattern classifier)
  [[nodiscard]] bool any() const noexcept {
    return !json_path.empty() || !trace_path.empty() || sample_interval != 0 ||
           profile || host_metrics || sharing;
  }
};

/// The observability flags, writing into `o`.
[[nodiscard]] Flags obs_flags(ObsOptions& o);

struct BenchOptions {
  double scale = 0.05;
  bool csv = false;
  std::vector<unsigned> procs{1, 2, 4, 8, 16, 32};
  /// Sweep worker threads (--jobs): 1 = sequential, 0 = hardware threads.
  unsigned jobs = 1;
  ObsOptions obs;

  /// Apply the scale to one of the paper's iteration counts (>= 32).
  [[nodiscard]] std::uint64_t scaled(std::uint64_t paper_count) const {
    return harness::scaled(scale, paper_count);
  }
};

BenchOptions parse_bench_args(int argc, char** argv);

} // namespace ccsim::harness
