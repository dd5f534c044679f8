#include "harness/machine.hpp"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace ccsim::harness {

namespace {

/// Simulated-cycle period at which the host collector samples event-queue
/// depth. Cycle-based so the histogram is deterministic across hosts.
constexpr Cycle kHostQueueSample = 4096;

const MachineConfig& validated(const MachineConfig& cfg) {
  if (cfg.nprocs == 0 || cfg.nprocs > mem::kMaxNodes)
    throw std::invalid_argument(
        "nprocs = " + std::to_string(cfg.nprocs) + " is outside [1, " +
        std::to_string(mem::kMaxNodes) + "]: the directory's full-map sharer set has " +
        std::to_string(mem::kMaxNodes) + " bits");
  return cfg;
}

std::vector<obs::Observer*> attached(std::initializer_list<obs::Observer*> all) {
  std::vector<obs::Observer*> v;
  for (obs::Observer* o : all)
    if (o) v.push_back(o);
  return v;
}

} // namespace

Machine::Machine(MachineConfig cfg)
    : cfg_(validated(cfg)),
      trace_(cfg.trace || cfg.obs.sink || cfg.obs.check_invariants
                 ? std::make_unique<obs::TraceLog>()
                 : nullptr),
      alloc_(cfg.nprocs),
      checker_(cfg.obs.check_invariants
                   ? std::make_unique<obs::InvariantChecker>(cfg.nprocs)
                   : nullptr),
      sharing_(cfg.obs.sharing ? std::make_unique<obs::SharingTracker>(
                                     cfg.nprocs, cfg.cu_threshold)
                               : nullptr),
      hot_(cfg.obs.hot_blocks ? std::make_unique<obs::HotBlockTable>() : nullptr),
      ledger_(cfg.obs.profile
                  ? std::make_unique<obs::CycleLedger>(cfg.nprocs, q_)
                  : nullptr),
      observers_(attached({checker_.get(), sharing_.get(), hot_.get(), ledger_.get()})),
      misses_(cfg.nprocs, counters_, observers_),
      updates_(cfg.nprocs, counters_, observers_),
      net_(q_, net::MeshTopology(cfg.nprocs), cfg.net, &counters_.net),
      host_(cfg.obs.host_metrics
                ? std::make_unique<obs::HostPerfCollector>(kHostQueueSample)
                : nullptr),
      ctx_{q_,
           net_,
           alloc_,
           counters_,
           misses_,
           updates_,
           cfg.nprocs,
           cfg.cu_threshold,
           trace_.get(),
           observers_,
           host_.get(),
           cfg.consistency,
           cfg.hybrid_default} {
  if (checker_ && cfg_.protocol == proto::Protocol::Hybrid)
    throw std::invalid_argument(
        "check_invariants is not supported on Protocol::Hybrid");
  if (trace_) {
    if (cfg_.obs.sink) trace_->add_sink(cfg_.obs.sink);
    net_.set_trace(trace_.get());
  }
  if (host_) net_.set_host(host_.get());
  nodes_.reserve(cfg_.nprocs);
  procs_.reserve(cfg_.nprocs);
  for (NodeId i = 0; i < cfg_.nprocs; ++i) {
    nodes_.push_back(std::make_unique<proto::Node>(cfg_.protocol, i, ctx_,
                                                   cfg_.cache_bytes, cfg_.wb_entries,
                                                   cfg_.timings));
    net_.attach(i, *nodes_.back());
    procs_.push_back(std::make_unique<cpu::Processor>(i, q_, nodes_[i]->cache_ctrl()));
    procs_.back()->cpu().set_ledger(ledger_.get());
    procs_.back()->cpu().set_progress(&progress_);
  }
  if (checker_) {
    checker_->set_alloc(&alloc_);
    for (NodeId i = 0; i < cfg_.nprocs; ++i)
      checker_->attach_node(&nodes_[i]->cache_ctrl().cache(),
                            &nodes_[i]->home_ctrl().directory(),
                            &nodes_[i]->home_ctrl().memory());
    trace_->add_sink(checker_.get());
  }
}

Cycle Machine::run(const std::vector<Program>& programs) {
  if (ran_) throw std::logic_error("Machine::run may only be called once");
  ran_ = true;
  if (programs.size() > cfg_.nprocs)
    throw std::invalid_argument("more programs than processors");

  unsigned remaining = static_cast<unsigned>(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i)
    procs_[i]->run(programs[i], [&remaining] { --remaining; });

  std::unique_ptr<obs::IntervalSampler> sampler;
  if (cfg_.obs.sample_interval > 0)
    sampler =
        std::make_unique<obs::IntervalSampler>(cfg_.obs.sample_interval, counters_);

  if (host_) host_->run_begin();
  const bool watch = cfg_.watchdog_stall_cycles > 0;
  std::uint64_t seen_progress = progress_;
  Cycle progress_cycle = q_.now();
  bool drained;
  if (sampler || watch || host_) {
    // Drive the queue manually so interval boundaries are cut at the right
    // sim times (a self-rescheduling sampler event would keep the queue
    // non-empty forever and defeat drain-based deadlock detection), so
    // the watchdog can compare the next event time against the last cycle
    // at which some processor completed a memory operation, and so the
    // host collector can observe queue depth between events.
    while (!q_.empty() && q_.next_time() <= cfg_.max_cycles) {
      if (watch) {
        if (progress_ != seen_progress) {
          seen_progress = progress_;
          progress_cycle = q_.now();
        } else if (remaining != 0 &&
                   q_.next_time() > progress_cycle + cfg_.watchdog_stall_cycles) {
          throw DeadlockError(diagnose("watchdog: no memory operation completed for " +
                                           std::to_string(cfg_.watchdog_stall_cycles) +
                                           " cycles (livelock?)",
                                       remaining, programs.size()));
        }
      }
      if (sampler) {
        obs::ScopedHostCat t(host_.get(), obs::HostCat::ObsHooks);
        sampler->advance_to(q_.next_time());
      }
      if (host_) host_->before_event(q_.next_time(), q_.pending());
      q_.step();
    }
    drained = q_.empty();
  } else {
    drained = q_.run_until(cfg_.max_cycles);
  }
  for (auto& p : procs_) p->rethrow_if_failed();
  if (remaining != 0 && drained)
    throw DeadlockError(diagnose("event queue drained with programs waiting (lost wakeup?)",
                                 remaining, programs.size()));
  if (remaining != 0)
    throw BudgetError(
        diagnose("simulated time exceeded max_cycles", remaining, programs.size()));
  if (checker_) {
    obs::ScopedHostCat t(host_.get(), obs::HostCat::ObsHooks);
    checker_->final_audit();
  }
  if (sharing_) {
    obs::ScopedHostCat t(host_.get(), obs::HostCat::ObsHooks);
    sharing_->finalize();
  }
  updates_.finalize(q_.now());
  if (ledger_) ledger_->finalize(q_.now());
  if (sampler) {
    // After finalize: termination-classified updates land in the final
    // sample, preserving "interval deltas sum to the final counters".
    sampler->finish(q_.now());
    samples_ = sampler->series();
  }
  if (host_) host_->run_end();
  return q_.now();
}

std::string Machine::diagnose(const std::string& what, unsigned remaining,
                              std::size_t nprograms) const {
  std::string msg = "simulation stalled: " + what;
  msg += " (cycle " + std::to_string(q_.now()) + "; " + std::to_string(remaining) +
         " of " + std::to_string(nprograms) + " programs unfinished)";
  msg += "\nstuck processors:";
  for (std::size_t i = 0; i < nprograms; ++i) {
    if (!procs_[i]->done()) {
      msg += ' ';
      msg += std::to_string(i);
    }
  }
  // Occupancy per node: in-flight messages addressed to it plus its cache
  // controller's queues. Quiet nodes are elided.
  msg += "\nnode occupancy (in-flight msgs, wb entries, mshrs, pending acks, "
         "outstanding ops):";
  bool any = false;
  for (NodeId i = 0; i < cfg_.nprocs; ++i) {
    const std::uint64_t inflight = net_.in_flight(i);
    const proto::CacheDebug d = nodes_[i]->cache_ctrl().debug_state();
    if (inflight == 0 && d.wb_entries == 0 && d.mshr == 0 && d.pending_acks == 0 &&
        d.outstanding == 0)
      continue;
    any = true;
    msg += "\n  node " + std::to_string(i) + ": inflight=" + std::to_string(inflight) +
           " wb=" + std::to_string(d.wb_entries) + " mshr=" + std::to_string(d.mshr) +
           " acks=" + std::to_string(d.pending_acks) +
           " outstanding=" + std::to_string(d.outstanding);
  }
  if (!any) msg += " (all quiet)";
  if (ledger_) {
    const obs::ProfileSnapshot s = ledger_->snapshot();
    msg += "\ncycle ledger: wall=" + std::to_string(s.wall);
  }
  if (trace_) {
    msg += "\nlast trace events:\n";
    msg += trace_->tail(40);
  }
  return msg;
}

std::vector<obs::HotBlockTable::Row> Machine::hot_blocks() const {
  if (!hot_) return {};
  return hot_->top(cfg_.obs.hot_top_k, &alloc_);
}

obs::HostPerfReport Machine::host_report() const {
  if (!host_) return {};
  obs::HostPerfReport r = host_->report();
  r.sim_cycles = q_.now();
  r.events_executed = q_.executed();
  r.events_scheduled = q_.scheduled();
  r.messages = counters_.net.messages + counters_.net.local;
  return r;
}

obs::SharingReport Machine::sharing_report() const {
  if (!sharing_) return {};
  return sharing_->report(&alloc_);
}

obs::ProfileSnapshot Machine::profile() const {
  if (!ledger_) return {};
  obs::ProfileSnapshot s = ledger_->snapshot();
  for (const auto& n : nodes_) {
    const proto::WriteBufferUse wb = n->cache_ctrl().write_buffer_use();
    s.wb_peak = std::max(s.wb_peak, wb.peak);
    s.wb_pushes += wb.pushes;
  }
  return s;
}

Cycle Machine::run_all(const Program& program) {
  std::vector<Program> ps(cfg_.nprocs, program);
  return run(ps);
}

void Machine::poke(Addr addr, std::uint64_t value, std::size_t size) {
  assert(mem::is_shared(addr));
  const mem::BlockAddr b = mem::block_of(addr);
  const NodeId home = alloc_.home_of(b);
  mem::MemoryModule& m = nodes_[home]->home_ctrl().memory_for(b);
  m.write_word(addr, size, value);
  // Report the full resulting word so sub-word pokes stay consistent with
  // the checker's whole-word shadow.
  const Addr base = mem::word_base(addr);
  for (obs::Observer* o : observers_) o->on_poke(base, m.read_word(base, mem::kWordSize));
}

void Machine::bind_protocol(Addr addr, std::size_t size, proto::Protocol p) {
  if (cfg_.protocol != proto::Protocol::Hybrid)
    throw std::logic_error("bind_protocol requires Protocol::Hybrid");
  alloc_.set_domain(addr, size, proto::domain_of_protocol(p));
}

std::uint64_t Machine::peek(Addr addr, std::size_t size) {
  const mem::BlockAddr b = mem::block_of(addr);
  const NodeId home = alloc_.home_of(b);
  auto& hc = nodes_[home]->home_ctrl();
  // A dirty copy (WI Exclusive / PU Private) holds the freshest data.
  if (const mem::DirEntry* e = hc.directory_for(b).find(b);
      e && (e->state == mem::DirState::Exclusive || e->state == mem::DirState::Private) &&
      e->owner != kInvalidNode) {
    if (nodes_[e->owner]->cache_ctrl().cache_for(b).find(b))
      return nodes_[e->owner]->cache_ctrl().cache_for(b).read(addr, size);
  }
  return hc.memory_for(b).read_word(addr, size);
}

} // namespace ccsim::harness
