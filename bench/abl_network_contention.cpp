// Ablation (design choice, section 3.1): network contention modeling.
//
// The paper models contention only at the source and destination of
// messages; this sweep re-runs the lock and barrier experiments with full
// per-link wormhole channel contention to show how that simplification
// flatters the traffic-heavy combinations (the update protocols' multicast
// storms in particular).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"experiment", "endpoint-only", "full-link", "slowdown"},
          .format = latency,
          .derived = ratio};
  // One row per construct: the same cell with endpoint-only, then full
  // per-link, contention.
  const auto add = [&](const char* family, auto kind, proto::Protocol proto) {
    const std::string label = series_label(harness::tag(kind), proto);
    Row r{family + label, {}};
    for (bool link : {false, true}) {
      harness::SweepJob j =
          cell(opts, label + (link ? "/link" : "/endpoint"), proto, p, kind);
      j.machine.net.link_contention = link;
      r.cells.push_back(std::move(j));
    }
    t.rows.push_back(std::move(r));
  };
  for (harness::LockKind k : harness::kLockKinds)
    for (proto::Protocol proto : kProtocols) add("lock ", k, proto);
  for (harness::BarrierKind k : kPaperBarriers)
    for (proto::Protocol proto : kProtocols) add("barrier ", k, proto);
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: endpoint-only vs full-link network contention "
                    "(P=32 latencies)",
                    body);
}
