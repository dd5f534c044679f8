// Ablation (design choice, section 3.1): release vs sequential
// consistency. The paper's machine uses RC -- the write buffer stalls only
// at releases. This sweep quantifies what the constructs pay if every
// shared store must instead be globally performed before the processor
// continues (SC), per protocol.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"experiment", "RC", "SC", "SC/RC"},
          .format = latency,
          .derived = ratio};
  // One row per construct: the same cell under release, then sequential,
  // consistency.
  const auto add = [&](const std::string& name, const std::string& tag, auto kind,
                       proto::Protocol proto) {
    Row r{name + "/" + std::string(proto::to_string(proto)), {}};
    for (proto::Consistency m :
         {proto::Consistency::Release, proto::Consistency::Sequential}) {
      harness::SweepJob j =
          cell(opts,
               tag + "/" + std::string(proto::to_string(proto)) +
                   (m == proto::Consistency::Release ? "/RC" : "/SC"),
               proto, p, kind);
      j.machine.consistency = m;
      r.cells.push_back(std::move(j));
    }
    t.rows.push_back(std::move(r));
  };
  for (proto::Protocol proto : kProtocols) {
    add("lock MCS", "MCS", harness::LockKind::Mcs, proto);
    add("barrier db", "db", harness::BarrierKind::Dissemination, proto);
    add("reduction sr", "sr", harness::ReductionKind::Sequential, proto);
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: release vs sequential consistency (P=32)", body);
}
