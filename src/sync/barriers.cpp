#include "sync/barriers.hpp"

#include "obs/cycle_accounting.hpp"

#include <bit>
#include <string>

namespace ccsim::sync {

// ---------------------------------------------------------------------
// CentralBarrier
// ---------------------------------------------------------------------

CentralBarrier::CentralBarrier(harness::Machine& m, NodeId home)
    : base_(m.alloc().allocate_on(home, 2 * mem::kWordSize, "central_barrier")),
      parties_(m.nprocs()),
      local_sense_(m.nprocs(), 1) {
  m.poke(count_addr(), parties_);
  // Figure 3: both the global sense and every local_sense start true; the
  // first episode spins on the toggled local value (false), so the global
  // sense must NOT begin there.
  m.poke(sense_addr(), 1);
}

sim::Task CentralBarrier::wait(cpu::Cpu& c) {
  // Each processor toggles its own (private) sense.
  const std::uint64_t ls = local_sense_[c.id()] ^ 1u;
  local_sense_[c.id()] = static_cast<std::uint8_t>(ls);
  std::uint64_t prev;
  {
    obs::ScopedPhase arrive(c.ledger(), c.id(), obs::SyncPhase::BarrierArrive);
    co_await c.think(1);
    prev = co_await c.fetch_add(count_addr(), static_cast<std::uint64_t>(-1));
  }
  obs::ScopedPhase depart(c.ledger(), c.id(), obs::SyncPhase::BarrierDepart);
  if (prev == 1) {
    // Last arriver: reset the count, then toggle the global sense.
    co_await c.store(count_addr(), parties_);
    co_await c.fence();
    co_await c.store(sense_addr(), ls);
  } else {
    co_await c.spin_until(sense_addr(),
                          [ls](std::uint64_t v) { return v == ls; });
  }
}

// ---------------------------------------------------------------------
// DisseminationBarrier
// ---------------------------------------------------------------------

DisseminationBarrier::DisseminationBarrier(harness::Machine& m)
    : parties_(m.nprocs()),
      rounds_(parties_ > 1 ? std::bit_width(parties_ - 1) : 1),
      state_(parties_) {
  flags_.reserve(parties_);
  for (NodeId i = 0; i < parties_; ++i)
    flags_.push_back(m.alloc().allocate_on(
        i, 2 * rounds_ * mem::kBlockSize, "dissem.flags" + std::to_string(i)));
  // allnodes[i].myflags[r][k] starts false for all i, r, k: memory is
  // zero-initialized, nothing to poke.
}

sim::Task DisseminationBarrier::wait(cpu::Cpu& c) {
  const NodeId pid = c.id();
  PerProc& st = state_[pid];
  if (parties_ == 1) {
    co_await c.think(1);
    co_return;
  }
  for (unsigned k = 0; k < rounds_; ++k) {
    const NodeId partner = static_cast<NodeId>((pid + (1u << k)) % parties_);
    {
      obs::ScopedPhase arrive(c.ledger(), c.id(), obs::SyncPhase::BarrierArrive);
      co_await c.store(flag_addr(partner, st.parity, k), st.sense);
    }
    obs::ScopedPhase depart(c.ledger(), c.id(), obs::SyncPhase::BarrierDepart);
    const std::uint64_t sense = st.sense;
    co_await c.spin_until(flag_addr(pid, st.parity, k),
                          [sense](std::uint64_t v) { return v == sense; });
  }
  if (st.parity == 1) st.sense ^= 1u;
  st.parity ^= 1u;
}

// ---------------------------------------------------------------------
// TreeBarrier
// ---------------------------------------------------------------------

TreeBarrier::TreeBarrier(harness::Machine& m)
    : parties_(m.nprocs()), sense_(m.nprocs(), 1), havechild_(m.nprocs()) {
  havechild_word_.resize(parties_);
  nodes_.reserve(parties_);
  for (NodeId i = 0; i < parties_; ++i) {
    // treenode: childnotready[0..3] packed as bytes of word 0 (figure 5);
    // word 1 is the record's pseudo-data.
    nodes_.push_back(m.alloc().allocate_on(i, 2 * mem::kWordSize,
                                           "tree.node" + std::to_string(i)));
  }
  globalsense_ = m.alloc().allocate_on(0, mem::kWordSize, "tree.globalsense");
  for (NodeId i = 0; i < parties_; ++i) {
    std::uint32_t word = 0;
    for (unsigned j = 0; j < kArity; ++j) {
      havechild_[i][j] = kArity * i + j + 1 < parties_;
      if (havechild_[i][j]) word |= 1u << (8 * j);
    }
    havechild_word_[i] = word;
    // childnotready starts equal to havechild.
    m.poke(nodes_[i], word, 4);
  }
  m.poke(globalsense_, 0);  // false; processors' sense starts true
}

sim::Task TreeBarrier::wait(cpu::Cpu& c) {
  const NodeId i = c.id();
  const std::uint64_t sense = sense_[i];

  // Wait until childnotready = {false,false,false,false} (the packed word
  // reaches zero), then re-arm it to havechild with one store.
  {
    obs::ScopedPhase arrive(c.ledger(), c.id(), obs::SyncPhase::BarrierArrive);
    if (havechild_word_[i] != 0) {
      co_await c.spin_until(nodes_[i], [](std::uint64_t v) { return v == 0; });
      co_await c.store(nodes_[i], havechild_word_[i], 4);
    }
    co_await c.fence();  // arrivals release this subtree's prior writes
    if (i != 0) {
      // Tell the parent this subtree has arrived.
      const NodeId parent = (i - 1) / kArity;
      const unsigned slot = (i - 1) % kArity;
      co_await c.store(childnotready_addr(parent, slot), 0, 1);
    }
  }
  obs::ScopedPhase depart(c.ledger(), c.id(), obs::SyncPhase::BarrierDepart);
  if (i != 0) {
    co_await c.spin_until(globalsense_,
                          [sense](std::uint64_t v) { return v == sense; });
  } else {
    co_await c.store(globalsense_, sense);
  }
  sense_[i] = sense ^ 1u;
}

// ---------------------------------------------------------------------
// CombiningTreeBarrier
// ---------------------------------------------------------------------

CombiningTreeBarrier::CombiningTreeBarrier(harness::Machine& m)
    : parties_(m.nprocs()), sense_(m.nprocs(), 1) {
  havechild_word_.resize(parties_);
  arrival_.reserve(parties_);
  wakeup_.reserve(parties_);
  for (NodeId i = 0; i < parties_; ++i) {
    arrival_.push_back(m.alloc().allocate_on(
        i, mem::kWordSize, "ctree.arrival" + std::to_string(i)));
    wakeup_.push_back(m.alloc().allocate_on(
        i, mem::kWordSize, "ctree.wakeup" + std::to_string(i)));
    std::uint32_t word = 0;
    for (unsigned j = 0; j < kArrivalArity; ++j) {
      if (kArrivalArity * i + j + 1 < parties_) word |= 1u << (8 * j);
    }
    havechild_word_[i] = word;
  }
  for (NodeId i = 0; i < parties_; ++i) {
    m.poke(arrival_[i], havechild_word_[i], 4);
    m.poke(wakeup_[i], 0);
  }
}

sim::Task CombiningTreeBarrier::wait(cpu::Cpu& c) {
  const NodeId i = c.id();
  const std::uint64_t sense = sense_[i];

  // Arrival: 4-ary fan-in, identical to the figure-5 tree.
  {
    obs::ScopedPhase arrive(c.ledger(), c.id(), obs::SyncPhase::BarrierArrive);
    if (havechild_word_[i] != 0) {
      co_await c.spin_until(arrival_[i], [](std::uint64_t v) { return v == 0; });
      co_await c.store(arrival_[i], havechild_word_[i], 4);
    }
    if (i != 0) {
      const NodeId parent = (i - 1) / kArrivalArity;
      const unsigned slot = (i - 1) % kArrivalArity;
      co_await c.fence();
      co_await c.store(childnotready_addr(parent, slot), 0, 1);
    }
  }
  obs::ScopedPhase depart(c.ledger(), c.id(), obs::SyncPhase::BarrierDepart);
  if (i != 0) {
    // Wakeup: spin on a flag in our own memory (exactly one writer).
    co_await c.spin_until(wakeup_[i],
                          [sense](std::uint64_t v) { return v == sense; });
  }
  // Propagate the wakeup down the binary tree.
  for (unsigned j = 1; j <= kWakeupArity; ++j) {
    const NodeId child = kWakeupArity * i + j;
    if (child < parties_) co_await c.store(wakeup_[child], sense);
  }
  sense_[i] = sense ^ 1u;
}

} // namespace ccsim::sync
