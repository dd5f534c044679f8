#include "obs/sampler.hpp"

#include <cassert>

namespace ccsim::obs {

IntervalSampler::IntervalSampler(Cycle interval, const stats::Counters& live)
    : live_(live), next_boundary_(interval) {
  assert(interval > 0);
  series_.interval = interval;
}

void IntervalSampler::cut(Cycle boundary) {
  Sample s;
  s.begin = next_boundary_ - series_.interval;
  s.end = boundary;
  s.delta = stats::delta(live_, last_);
  last_ = live_;
  series_.samples.push_back(std::move(s));
}

void IntervalSampler::advance_to(Cycle t) {
  while (next_boundary_ <= t) {
    cut(next_boundary_);
    next_boundary_ += series_.interval;
  }
}

void IntervalSampler::finish(Cycle end) {
  advance_to(end);
  // Whatever accrued past the last boundary -- a partial interval, or
  // counter movement with no clock movement (end-of-run update
  // classification) -- goes into one final sample.
  const Cycle begin = next_boundary_ - series_.interval;
  const stats::Counters d = stats::delta(live_, last_);
  if (end > begin || d != stats::Counters{}) {
    Sample s;
    s.begin = begin;
    s.end = end;
    s.delta = d;
    last_ = live_;
    series_.samples.push_back(std::move(s));
  }
}

} // namespace ccsim::obs
