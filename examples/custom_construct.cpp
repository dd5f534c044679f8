// Writing your own synchronization construct against the CPU API.
//
// This example implements a construct that is NOT in the library -- a
// sense-reversing COUNTING SEMAPHORE-style combining barrier ("tournament
// barrier", pairwise rounds) -- using only public primitives (loads,
// stores, spin_until, fences, shared allocation), then validates it and
// compares its traffic signature against the library's barriers under two
// protocols.
//
//   $ ./custom_construct [nprocs]
#include "ccsim.hpp"

#include <bit>
#include <iostream>

using namespace ccsim;

namespace {

/// Tournament barrier: in round k, processor i with i % 2^(k+1) == 0 is a
/// "winner" that waits for the "loser" i + 2^k to signal; the overall
/// champion (processor 0) toggles a global release flag everyone spins on.
/// Flags are block-padded and homed at their spinners, following the same
/// placement discipline as the library's dissemination barrier.
class TournamentBarrier final : public sync::Barrier {
public:
  explicit TournamentBarrier(harness::Machine& m)
      : parties_(m.nprocs()),
        rounds_(parties_ > 1 ? std::bit_width(parties_ - 1) : 0),
        sense_(parties_, 1) {
    arrival_.reserve(parties_);
    for (NodeId i = 0; i < parties_; ++i)
      arrival_.push_back(m.alloc().allocate_on(i, std::max<unsigned>(rounds_, 1) *
                                                      mem::kBlockSize));
    release_ = m.alloc().allocate_on(0, mem::kWordSize);
    m.poke(release_, 0);
  }

  sim::Task wait(cpu::Cpu& c) override {
    const NodeId i = c.id();
    const std::uint64_t sense = sense_[i];
    bool dropped_out = false;
    for (unsigned k = 0; k < rounds_ && !dropped_out; ++k) {
      const unsigned span = 1u << (k + 1);
      if (i % span == 0) {
        const NodeId loser = i + (1u << k);
        if (loser < parties_) {
          // Winner: wait for the loser's arrival signal for this round.
          co_await c.spin_until(arrival_flag(i, k), [sense](std::uint64_t v) {
            return v == sense;
          });
        }
      } else {
        // Loser: signal the winner, then wait for the global release.
        const NodeId winner = i - (i % span);
        co_await c.fence();  // release everything done before the barrier
        co_await c.store(arrival_flag(winner, k), sense);
        dropped_out = true;
      }
    }
    if (i == 0) {
      co_await c.fence();
      co_await c.store(release_, sense);
    } else {
      co_await c.spin_until(release_,
                            [sense](std::uint64_t v) { return v == sense; });
    }
    sense_[i] ^= 1u;
  }

private:
  [[nodiscard]] Addr arrival_flag(NodeId winner, unsigned round) const {
    return arrival_[winner] + round * mem::kBlockSize;
  }

  unsigned parties_;
  unsigned rounds_;
  std::vector<Addr> arrival_;
  Addr release_;
  std::vector<std::uint64_t> sense_;
};

struct Probe {
  Cycle per_episode;
  stats::Counters counters;
};

template <typename MakeBarrier>
Probe probe(proto::Protocol p, unsigned nprocs, MakeBarrier make) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  harness::Machine m(cfg);
  auto barrier = make(m);
  const int episodes = 300;
  // Validate separation while measuring.
  std::vector<int> arrived(nprocs, 0);
  const Cycle cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int e = 0; e < episodes; ++e) {
      arrived[c.id()] = e + 1;
      co_await c.think(1 + (c.id() * 11 + e * 3) % 30);
      co_await barrier->wait(c);
      for (unsigned q = 0; q < m.nprocs(); ++q) {
        if (arrived[q] < e + 1) throw std::logic_error("barrier separation violated");
      }
    }
  });
  return {cycles / episodes, m.counters()};
}

} // namespace

int main(int argc, char** argv) {
  const unsigned nprocs = argc > 1 ? static_cast<unsigned>(std::stoul(argv[1])) : 16;
  std::cout << "Custom tournament barrier vs library barriers, " << nprocs
            << " processors\n\n";

  stats::Table t = stats::Table::figure(
      {"barrier/proto", "cycles/episode", "misses", "updates", "useful-upd"});
  for (proto::Protocol p : {proto::Protocol::WI, proto::Protocol::PU}) {
    const auto tour = probe(p, nprocs, [](harness::Machine& m) {
      return std::make_unique<TournamentBarrier>(m);
    });
    const auto diss = probe(p, nprocs, [](harness::Machine& m) {
      return std::make_unique<sync::DisseminationBarrier>(m);
    });
    const auto cent = probe(p, nprocs, [](harness::Machine& m) {
      return std::make_unique<sync::CentralBarrier>(m);
    });
    const std::string tag = std::string(proto::to_string(p));
    const auto row = [&](const char* name, const Probe& pr) {
      t.add_row({name + ("/" + tag), stats::Table::num(pr.per_episode),
                 stats::Table::num(pr.counters.misses.total()),
                 stats::Table::num(pr.counters.updates.total()),
                 stats::Table::num(pr.counters.updates.useful())});
    };
    row("tournament", tour);
    row("dissemination", diss);
    row("central", cent);
  }
  t.print(std::cout);
  std::cout << "\nAnything implementing sync::Barrier plugs into the same "
               "harness, classifiers and workloads as the built-ins.\n";
  return 0;
}
