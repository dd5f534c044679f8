// ccadvise: cross-validate the sharing-pattern advisor against measured
// protocol rankings.
//
//   ccadvise [--procs N] [--scale X] [--jobs N] [--out FILE]
//            [--tie-pct PCT] [--threshold PCT] [--progress] [--quiet]
//
// A fixed harness::Grid: the paper's nine synchronization constructs
// (three locks, four barriers, two reductions -- figures 8, 11, 14) under
// WI / PU / CU. The WI run of each construct carries the sharing tracker
// (obs/sharing.hpp); its classifier output feeds the cost model, whose
// recommended protocol is then compared against the *measured* best
// static protocol for that construct (lowest simulated cycle count,
// with anything within --tie-pct percent of the minimum counted as tied
// for best, default 2%). The advisor rides on WI because write-interval
// reader-sets are protocol-invariant: the same program produces the
// same advice no matter which protocol observed it, and validating that
// advice against ground truth from all three protocols is exactly the
// check this tool automates. Flags come from the shared table in
// harness/cli (`--flag value` or `--flag=value`; --procs in [1, 64];
// --help lists them).
//
// Output: an aligned table on stdout (per construct: measured Mcycles
// under each protocol, the tie-set of measured-best protocols, the
// advisor's pick, and whether they agree) plus a summary line, and with
// --out a JSON document (schema in docs/schema.md) embedding each WI
// run's full "sharing" section. Exit codes: 0 = every cell ran and the
// advisor agreed with the measured best on at least --threshold percent
// of constructs (default 80); 1 = a cell failed or agreement fell below
// the threshold; 2 = usage error.
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

#include <cstdio>
#include <iostream>

using namespace ccsim;
using namespace ccsim::harness;

namespace {

constexpr proto::Protocol kProtocols[] = {proto::Protocol::WI, proto::Protocol::PU,
                                          proto::Protocol::CU};

struct Options {
  Grid grid;
  double tie_pct = 2.0;   ///< cycles within this % of min count as tied-best
  double threshold = 80;  ///< minimum agreement % for exit code 0
};

/// The advisor-vs-measurement verdict for one construct.
struct Verdict {
  std::string name;
  bool ok = false;         ///< all three runs completed
  std::string error;       ///< first failure text when !ok
  double cycles[3] = {};   ///< measured cycles, indexed like kProtocols
  std::vector<proto::Protocol> best;  ///< measured tie-set (ties allowed)
  proto::Protocol advised = proto::Protocol::WI;
  bool agree = false;      ///< advised is in the measured tie-set
  obs::SharingReport sharing;  ///< the WI run's report
};

/// Judge construct `c` of `n` from the protocol-major results: its run
/// under kProtocols[p] is results[p * n + c].
Verdict judge(const std::vector<SweepResult>& results, std::size_t c, std::size_t n,
              double tie_pct) {
  Verdict v;
  v.name = results[c].name.substr(0, results[c].name.rfind('/'));
  for (std::size_t p = 0; p < 3; ++p) {
    const SweepResult& r = results[p * n + c];
    if (!r.ok) {
      v.error = r.name + ": " + r.error;
      return v;
    }
    v.cycles[p] = static_cast<double>(r.run.cycles);
  }
  v.ok = true;
  v.sharing = results[c].run.sharing;
  v.advised = v.sharing.recommended;
  const double min = *std::min_element(std::begin(v.cycles), std::end(v.cycles));
  const double cutoff = min * (1.0 + tie_pct / 100.0);
  for (std::size_t p = 0; p < 3; ++p)
    if (v.cycles[p] <= cutoff) v.best.push_back(kProtocols[p]);
  for (proto::Protocol b : v.best) v.agree |= b == v.advised;
  return v;
}

std::string tie_set_string(const std::vector<proto::Protocol>& best) {
  std::string s;
  for (proto::Protocol p : best) {
    if (!s.empty()) s += '/';
    s += proto::to_string(p);
  }
  return s;
}

void print_table(std::ostream& os, const std::vector<Verdict>& verdicts) {
  stats::Table t = stats::Table::figure({"construct", "WI Mcyc", "PU Mcyc",
                                         "CU Mcyc", "measured", "advised",
                                         "agree"});
  for (const Verdict& v : verdicts) {
    if (!v.ok) {
      t.add_row({v.name, "-", "-", "-", "-", "-", "FAILED"});
      continue;
    }
    t.add_row({v.name, stats::Table::num(v.cycles[0] * 1e-6, 2),
               stats::Table::num(v.cycles[1] * 1e-6, 2),
               stats::Table::num(v.cycles[2] * 1e-6, 2), tie_set_string(v.best),
               std::string(proto::to_string(v.advised)),
               v.agree ? "yes" : "NO"});
  }
  t.print(os);
}

void write_report(std::ostream& os, const Options& o,
                  const std::vector<Verdict>& verdicts, std::size_t agreed,
                  double agreement, bool pass) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccadvise");
  w.key("procs").value(o.grid.procs.front());
  w.key("scale").value(o.grid.scale);
  w.key("tie_pct").value(o.tie_pct);
  w.key("threshold_pct").value(o.threshold);
  w.key("constructs").begin_array();
  for (const Verdict& v : verdicts) {
    w.begin_object();
    w.key("name").value(v.name);
    w.key("ok").value(v.ok);
    if (!v.ok) {
      w.key("error").value(v.error);
      w.end_object();
      continue;
    }
    w.key("cycles").begin_object();
    for (int p = 0; p < 3; ++p)
      w.key(std::string(proto::to_string(kProtocols[p]))).value(v.cycles[p]);
    w.end_object();
    w.key("measured_best").begin_array();
    for (proto::Protocol b : v.best)
      w.value(std::string(proto::to_string(b)));
    w.end_array();
    w.key("advised").value(std::string(proto::to_string(v.advised)));
    w.key("agree").value(v.agree);
    w.key("sharing").begin_object();
    write_sharing_fields(w, v.sharing);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("constructs").value(static_cast<std::uint64_t>(verdicts.size()));
  w.key("agreed").value(static_cast<std::uint64_t>(agreed));
  w.key("agreement_pct").value(agreement);
  w.key("pass").value(pass);
  w.end_object();
  w.end_object();
  os << '\n';
}

} // namespace

int main(int argc, char** argv) {
  Options o;
  Grid& g = o.grid;
  g.barriers.assign(std::begin(kBarrierKinds), std::end(kBarrierKinds));
  g.reductions.assign(std::begin(kReductionKinds), std::end(kReductionKinds));
  ToolOptions run;
  Flags flags{
      {"--procs", "N", [&](const std::string& v) { g.procs = {parse_nodes(v)}; }},
      {"--scale", "X", [&](const std::string& v) { g.scale = parse_scale(v); }},
      {"--tie-pct", "PCT", [&](const std::string& v) { o.tie_pct = parse_percent(v); }},
      {"--threshold", "PCT",
       [&](const std::string& v) { o.threshold = parse_percent(v); }},
  };
  return tool_main(argc, argv, "ccadvise", std::move(flags), run, [&] {
    std::vector<SweepJob> jobs = grid_jobs(g, [](const GridCell& c) {
      return std::string(to_string(c.family)) + "/" + std::string(c.kind()) + "/" +
             std::string(proto::to_string(c.protocol));
    });
    // Only the WI run carries the sharing tracker -- that is the run whose
    // report drives the advice, and leaving it off the PU/CU runs keeps
    // their cycle measurements a pure ground truth.
    for (SweepJob& j : jobs)
      j.machine.obs.sharing = j.machine.protocol == proto::Protocol::WI;
    const std::vector<SweepResult> results = run_sweep(jobs, run.sweep());
    const bool any_failed = print_failures(results) != 0;

    const std::size_t n = results.size() / 3;
    std::vector<Verdict> verdicts;
    std::size_t agreed = 0;
    for (std::size_t c = 0; c < n; ++c) {
      verdicts.push_back(judge(results, c, n, o.tie_pct));
      agreed += verdicts.back().agree;
    }
    // A failed construct counts against agreement: the advisor cannot be
    // validated on a cell without ground truth.
    const double agreement =
        n == 0 ? 0.0 : 100.0 * static_cast<double>(agreed) / static_cast<double>(n);
    const bool pass = !any_failed && agreement >= o.threshold;

    if (!run.quiet) {
      print_table(std::cout, verdicts);
      std::printf("agreement: %zu/%zu constructs (%.1f%%), threshold %.0f%% -> %s\n",
                  agreed, n, agreement, o.threshold, pass ? "PASS" : "FAIL");
    }
    run.write("advisor report", [&](std::ostream& os) {
      write_report(os, o, verdicts, agreed, agreement, pass);
    });
    return pass ? 0 : 1;
  });
}
