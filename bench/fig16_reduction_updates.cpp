// Figure 16: update traffic of reductions in the synthetic program (32
// procs), PU and CU only.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t{.headers = headers("red/proto", harness::update_headers()), .format = updates};
  const unsigned p = opts.procs.back();
  for (harness::ReductionKind k : kPaperReductions) {
    for (proto::Protocol proto : {proto::Protocol::PU, proto::Protocol::CU}) {
      const std::string label = series_label(harness::tag(k), proto);
      t.rows.push_back({label, {cell(opts, label, proto, p, k)}});
    }
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 16: reduction update traffic at P=32", body);
}
