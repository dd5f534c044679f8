// Extension ablation: shared-data layout inside the lock structures.
//
// Figure 1 declares the ticket lock's two counters adjacently (one cache
// block); under update protocols every fetch&add of next_ticket then
// multicasts a FALSE-SHARING update to every spinner of now_serving.
// Splitting the counters into separate blocks removes those updates --
// spinners only cache the now_serving block, so ticket handouts update
// nobody. This quantifies how much of figure 10's tk useless traffic is
// pure layout.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"layout/proto", "avg-lat", "updates", "useful-upd", "false-upd",
                      "misses"},
          .format = [](const harness::SweepJob&, const harness::RunResult& r) {
            const stats::Counters& ctr = r.counters;
            return std::vector<std::string>{
                stats::Table::num(r.avg_latency, 1),
                stats::Table::num(ctr.updates.total()),
                stats::Table::num(ctr.updates.useful()),
                stats::Table::num(ctr.updates[stats::UpdateClass::FalseSharing]),
                stats::Table::num(ctr.misses.total())};
          }};
  for (bool split : {false, true}) {
    const harness::LockFactory lock = [split](harness::Machine& m) {
      return std::make_unique<sync::TicketLock>(m, 0, split);
    };
    for (proto::Protocol proto : kProtocols) {
      const std::string label = series_label(split ? "split" : "packed", proto);
      t.rows.push_back({label, {cell(opts, label, proto, p, lock)}});
    }
  }
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: ticket-lock counter layout (figure 1's single "
                    "block vs split blocks) at P=32",
                    body);
}
