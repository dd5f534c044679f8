// Host-performance micro-benchmarks of the simulator's hot paths
// (google-benchmark): event kernel throughput, network send/deliver,
// cache lookups, the observers' per-block hooks, and end-to-end
// simulated-cycles-per-host-second.
#include "ccsim.hpp"
#include "obs/invariants.hpp"

#include <benchmark/benchmark.h>

#include <vector>

namespace {

using namespace ccsim;

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) q.schedule(1, chain);
    };
    q.schedule(1, chain);
    q.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_EventQueueFanOut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) q.schedule_at(static_cast<Cycle>(i % 64), [] {});
    q.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueFanOut)->Arg(1024)->Arg(16384);

// A deep queue like paper_update's central barriers: about 1000 events
// pending, each rescheduling itself with that workload's delay mix --
// mostly 1-2 cycles, deliveries at 10-400, and about a tenth beyond the
// 1024-cycle calendar ring. Delays come from a table drawn at run time.
void BM_EventQueueDeep(benchmark::State& state) {
  constexpr std::size_t kPending = 1000;
  std::vector<Cycle> delays(4096);
  sim::Rng rng(static_cast<std::uint64_t>(state.range(0)));
  for (Cycle& d : delays) {
    const std::uint64_t r = rng.below(10);
    d = r < 6 ? rng.between(1, 2) : r < 9 ? rng.between(10, 400) : rng.between(1025, 4000);
  }
  sim::EventQueue q;
  std::size_t next = 0;
  std::uint64_t fired = 0;
  struct Tick {
    sim::EventQueue* q;
    const std::vector<Cycle>* delays;
    std::size_t* next;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      q->schedule((*delays)[(*next)++ % delays->size()], *this);
    }
  };
  for (std::size_t i = 0; i < kPending; ++i)
    q.schedule(delays[next++ % delays.size()], Tick{&q, &delays, &next, &fired});
  for (auto _ : state) {
    q.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDeep)->Arg(1);

void BM_NetworkSend(benchmark::State& state) {
  struct Sink final : net::MessageSink {
    void deliver(const net::Message&) override {}
  };
  sim::EventQueue q;
  net::Network net(q, net::MeshTopology(32), {}, nullptr);
  Sink sink;
  for (NodeId i = 0; i < 32; ++i) net.attach(i, sink);
  net::Message m;
  m.type = net::MsgType::Update;
  m.addr = mem::kSharedBase;
  std::uint64_t i = 0;
  for (auto _ : state) {
    m.src = static_cast<NodeId>(i % 32);
    m.dst = static_cast<NodeId>((i * 7 + 3) % 32);
    net.send(m);
    ++i;
    if (i % 4096 == 0) q.run();
  }
  q.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSend);

void BM_CacheLookup(benchmark::State& state) {
  mem::DataCache cache(64 * 1024);
  for (mem::BlockAddr b = 0; b < 1024; ++b) {
    auto& l = cache.set_for(b);
    l.block = b;
    l.state = mem::LineState::Shared;
  }
  std::uint64_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += cache.find((i * 37) % 2048) != nullptr;
    ++i;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

// The observers' per-block hooks on their own: a standalone invariant
// checker, sharing tracker and miss classifier (feeding the tracker's
// on_miss) driven by a stream of reads, global writes and misses over 256
// shared blocks at P=16, drawn at run time. The stream replays in a loop;
// each read returns its word's latest value in that cyclic order, and
// each word starts at its last value in the stream, so the checker never
// throws.
void BM_ObserverHooks(benchmark::State& state) {
  constexpr unsigned kProcs = 16;
  constexpr std::size_t kWords = 256 * mem::kWordsPerBlock;
  enum class Op : std::uint8_t { Read, Write, Miss };
  struct Step {
    Op op;
    NodeId node;
    Addr addr;
    std::uint64_t value;
  };
  const auto word_addr = [](std::size_t w) { return mem::kSharedBase + w * mem::kWordSize; };
  const auto word_index = [](Addr a) { return (a - mem::kSharedBase) / mem::kWordSize; };
  sim::Rng rng(static_cast<std::uint64_t>(state.range(0)));
  std::vector<Step> stream(1 << 14);
  std::vector<std::uint64_t> latest(kWords, 0);
  for (Step& s : stream) {
    const std::uint64_t r = rng.below(10);
    s.op = r < 6 ? Op::Read : r < 8 ? Op::Write : Op::Miss;
    s.node = static_cast<NodeId>(rng.below(kProcs));
    s.addr = word_addr(rng.below(kWords));
    s.value = rng.next();
    if (s.op == Op::Write) latest[word_index(s.addr)] = s.value;
  }
  obs::InvariantChecker checker(kProcs);
  for (std::size_t w = 0; w < kWords; ++w) checker.on_poke(word_addr(w), latest[w]);
  for (Step& s : stream) {
    if (s.op == Op::Write) latest[word_index(s.addr)] = s.value;
    else s.value = latest[word_index(s.addr)];
  }
  obs::SharingTracker tracker(kProcs, 4);
  obs::Observer* const subscribers[] = {&tracker};
  stats::Counters counters;
  stats::MissClassifier misses(kProcs, counters, subscribers);
  std::size_t i = 0;
  for (auto _ : state) {
    const Step& s = stream[i++ % stream.size()];
    switch (s.op) {
      case Op::Read:
        checker.on_read(s.node, s.addr, s.value);
        tracker.on_read(s.node, s.addr, s.value);
        break;
      case Op::Write:
        checker.on_global_write(s.node, s.addr, s.value);
        tracker.on_global_write(s.node, s.addr, s.value);
        misses.on_store(s.node, s.addr);
        break;
      case Op::Miss:
        misses.classify_miss(s.node, s.addr);
        misses.on_fill(s.node, mem::block_of(s.addr));
        break;
    }
  }
  benchmark::DoNotOptimize(checker.checks());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObserverHooks)->Arg(1);

void BM_EndToEndLockWorkload(benchmark::State& state) {
  // Simulated cycles per host-second for the densest workload we have.
  std::uint64_t simulated = 0;
  for (auto _ : state) {
    harness::MachineConfig cfg;
    cfg.protocol = proto::Protocol::CU;
    cfg.nprocs = 16;
    const auto r = harness::run_lock_experiment(cfg, harness::LockKind::Ticket,
                                                {.total_acquires = 1600});
    simulated += r.cycles;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(simulated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndLockWorkload)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
