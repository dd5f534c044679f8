// Seeded randomized stress workload (tools/ccstress).
//
// One stress cell runs a segment-structured random program on every
// processor: within a segment each processor issues a pseudorandom mix of
// reads (anywhere in a shared arena), writes (to its own stripe of words,
// so blocks are falsely shared but no word has two plain-store writers --
// under the update protocols concurrent plain stores to one word are a
// program bug, not a protocol bug), home-serialized atomics, lock-protected
// read-modify-writes and think pauses; segments end in a randomly chosen
// barrier, optionally preceded by a reduction round. The whole schedule is
// a pure function of (seed, nprocs): the master seed picks the per-segment
// constructs and per-processor streams derive from it, so one seed replays
// byte-identically -- including under deterministic network jitter
// (net::Network::Params::jitter_max), which perturbs timing only.
//
// Built-in end-to-end checks (all independent of the invariant checker):
// host-side mutual exclusion, reduction results against the oracle, and a
// final sweep comparing every stripe word and the lock-protected counter
// against host-tracked expected values via Machine::peek.
#pragma once

#include "harness/workloads.hpp"

#include <cstdint>

namespace ccsim::harness {

struct StressParams {
  std::uint64_t seed = 1;
  unsigned segments = 6;          ///< barrier-delimited segments
  unsigned ops_per_segment = 48;  ///< random memory ops per proc per segment
  unsigned data_blocks = 16;      ///< shared arena size (64 B blocks)
};

/// Run one stress cell. Enable the invariant checker / watchdog / jitter
/// through `cfg` (obs.check_invariants, watchdog_stall_cycles, net.jitter_*).
/// Throws DeadlockError, obs::InvariantViolation, or std::logic_error (an
/// end-to-end value check failed) on any detected misbehavior.
[[nodiscard]] RunResult run_stress_cell(const MachineConfig& cfg,
                                        const StressParams& params);

} // namespace ccsim::harness
