// Figure 15: miss traffic of reductions in the synthetic program (32 procs).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t{.headers = headers("red/proto", harness::miss_headers()), .format = misses};
  const unsigned p = opts.procs.back();
  for (harness::ReductionKind k : kPaperReductions) {
    for (proto::Protocol proto : kProtocols) {
      const std::string label = series_label(harness::tag(k), proto);
      t.rows.push_back({label, {cell(opts, label, proto, p, k)}});
    }
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 15: reduction cache-miss traffic at P=32",
                    body);
}
