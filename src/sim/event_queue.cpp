#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace ccsim::sim {

EventQueue::~EventQueue() {
  for (const Bucket& b : ring_)
    for (Slot* s = b.head; s; s = s->next) s->op(s->storage, false);
  for (const Far& f : far_) f.slot->op(f.slot->storage, false);
  for (auto& c : chunks_) CCSIM_UNPOISON(c.get(), kChunkSlots * sizeof(Slot));
}

void EventQueue::grow() {
  std::unique_ptr<Slot[]> chunk(new Slot[kChunkSlots]);
  chunks_.push_back(std::move(chunk));
  Slot* c = chunks_.back().get();
  for (std::size_t i = kChunkSlots; i-- > 0;) give_back(&c[i]);
}

void EventQueue::push_far(const Far& f) {
  far_.push_back(f);
  std::push_heap(far_.begin(), far_.end(), Later{});
}

void EventQueue::advance(Cycle t) {
  now_ = t;
  // Heap events now inside the ring's window enter their buckets in
  // (t, seq) order, ahead of anything the events at `t` will schedule.
  while (!far_.empty() && far_.front().t - now_ < kRingCycles) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    append(far_.back().t, far_.back().slot);
    far_.pop_back();
  }
}

Cycle EventQueue::find_next() const noexcept {
  if (pending_ == far_.size()) return far_.front().t;
  // Every ring event lies in [now, now + kRingCycles): the first occupied
  // bucket at or after now's, wrapping around, is the earliest.
  const std::size_t start = static_cast<std::size_t>(now_) & (kRingCycles - 1);
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    w = (w + 1) % kWords;
    bits = occupied_[w];
  }
  const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  return now_ + ((i - start) & (kRingCycles - 1));
}

bool EventQueue::step() {
  if (pending_ == 0) return false;
  const Cycle t = next_time();
  if (t != now_) advance(t);
  const std::size_t i = static_cast<std::size_t>(t) & (kRingCycles - 1);
  Bucket& b = ring_[i];
  Slot* s = b.head;
  b.head = s->next;
  if (!b.head) {
    b.tail = nullptr;
    occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    next_known_ = false;
  }
  --pending_;
  ++executed_;
  struct GiveBack {
    EventQueue* q;
    Slot* s;
    ~GiveBack() { q->give_back(s); }
  } give_back_slot{this, s};
  s->op(s->storage, true);
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

bool EventQueue::run_until(Cycle limit) {
  while (pending_ != 0) {
    if (next_time() > limit) return false;
    step();
  }
  return true;
}

} // namespace ccsim::sim
