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

  harness::Table t({"experiment", "endpoint-only", "full-link", "slowdown"});
  const auto row = [&](const std::string& name, auto&& run) {
    const double endpoint = run(false);
    const double link = run(true);
    t.add_row({name, harness::Table::num(endpoint, 1), harness::Table::num(link, 1),
               harness::Table::num(link / endpoint, 2) + "x"});
  };

  for (harness::LockKind k :
       {harness::LockKind::Ticket, harness::LockKind::Mcs, harness::LockKind::UcMcs}) {
    for (proto::Protocol proto : kProtocols) {
      row(std::string("lock ") + series_label(harness::tag(k), proto), [&](bool link) {
        harness::MachineConfig cfg;
        cfg.protocol = proto;
        cfg.nprocs = p;
        cfg.net.link_contention = link;
        harness::LockParams params;
        params.total_acquires = opts.scaled(32000);
        obs.configure(cfg, series_label(harness::tag(k), proto) +
                               (link ? "/link" : "/endpoint"));
        const auto r = harness::run_lock_experiment(cfg, k, params);
        obs.record(r);
        return r.avg_latency;
      });
    }
  }
  for (harness::BarrierKind k :
       {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
        harness::BarrierKind::Tree}) {
    for (proto::Protocol proto : kProtocols) {
      row(std::string("barrier ") + series_label(harness::tag(k), proto),
          [&](bool link) {
            harness::MachineConfig cfg;
            cfg.protocol = proto;
            cfg.nprocs = p;
            cfg.net.link_contention = link;
            obs.configure(cfg, series_label(harness::tag(k), proto) +
                                   (link ? "/link" : "/endpoint"));
            const auto r =
                harness::run_barrier_experiment(cfg, k, {opts.scaled(5000)});
            obs.record(r);
            return r.avg_latency;
          });
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: endpoint-only vs full-link network contention "
                    "(P=32 latencies)",
                    body);
}
