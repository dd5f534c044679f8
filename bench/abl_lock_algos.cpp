// Extension ablation: the full MCS'91 lock set -- test-and-set and
// test-and-test&set with exponential backoff alongside the paper's ticket
// and MCS locks -- under all three protocols. The paper picked ticket and
// MCS because earlier WI studies showed the centralized lock ideal at low
// contention and MCS at high contention; this table shows where the
// simpler locks land once update protocols enter the picture.
#include "bench_common.hpp"

#include <memory>

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  Table t = procs_table("lock/proto", opts);
  const auto add = [&](std::string_view tag, auto lock) {
    for (proto::Protocol proto : kProtocols) {
      Row r{series_label(tag, proto), {}};
      for (unsigned p : opts.procs)
        r.cells.push_back(cell(opts, r.label + "/P" + std::to_string(p), proto, p, lock));
      t.rows.push_back(std::move(r));
    }
  };
  add("tas", harness::LockFactory([](harness::Machine& m) {
        return std::make_unique<sync::TasLock>(m);
      }));
  add("ttas", harness::LockFactory([](harness::Machine& m) {
        return std::make_unique<sync::TtasLock>(m);
      }));
  for (harness::LockKind k : harness::kLockKinds) add(harness::tag(k), k);
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: TAS/TTAS/ticket/MCS/uc-MCS across protocols "
                    "(avg acquire-release latency)",
                    body);
}
