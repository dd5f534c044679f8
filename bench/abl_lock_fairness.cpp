// Extension ablation: lock FAIRNESS, which the paper's averages cannot
// show. Per-acquire wait-time distributions (p50/p99/max) for the five
// lock algorithms under the three protocols at P=32: the FIFO locks
// (ticket, MCS) keep p99 ~ p50 while the unfair test-and-set variants grow
// long tails, and the coherence protocol modulates how heavy those tails
// get (update protocols wake all contenders at once; WI hands the line to
// whoever refetches first).
#include "bench_common.hpp"

#include <memory>

using namespace ccbench;

namespace {

/// Wait-time percentiles of a cell's acquires.
std::vector<std::string> fairness(const harness::SweepJob&, const harness::RunResult& r) {
  const stats::LatencyHistogram& h = r.latency;
  const double p50 = static_cast<double>(h.percentile(0.50));
  const double p99 = static_cast<double>(h.percentile(0.99));
  return {stats::Table::num(h.mean(), 1),
          stats::Table::num(static_cast<std::uint64_t>(p50)),
          stats::Table::num(static_cast<std::uint64_t>(p99)), stats::Table::num(h.max()),
          stats::Table::num(p99 / std::max(1.0, p50), 1) + "x"};
}

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  Table t{.headers = {"lock/proto", "mean", "p50", "p99", "max", "p99/p50"},
          .format = fairness};
  const auto add = [&](std::string_view tag, auto lock) {
    for (proto::Protocol proto : kProtocols) {
      const std::string label = series_label(tag, proto);
      t.rows.push_back(
          {label, {cell(opts, label + "/P" + std::to_string(p), proto, p, lock)}});
    }
  };
  add("tas", harness::LockFactory([](harness::Machine& m) {
        return std::make_unique<sync::TasLock>(m);
      }));
  add("ttas", harness::LockFactory([](harness::Machine& m) {
        return std::make_unique<sync::TtasLock>(m);
      }));
  add("tk", harness::LockKind::Ticket);
  add("MCS", harness::LockKind::Mcs);
  run_rows(t, opts, obs);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: per-acquire wait distributions (fairness) at P=32",
                    body);
}
