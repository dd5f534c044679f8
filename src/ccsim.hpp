// ccsim -- umbrella header.
//
// Execution-driven simulator of a DASH-like multiprocessor under
// write-invalidate, pure-update and competitive-update coherence protocols,
// with the synchronization-construct library and traffic classification of
// Bianchini, Carrera & Kontothanassis, "The Interaction of Parallel
// Programming Constructs and Coherence Protocols" (PPoPP 1997).
//
// Typical use:
//
//   ccsim::harness::MachineConfig cfg;
//   cfg.nprocs = 8;
//   cfg.protocol = ccsim::proto::Protocol::CU;
//   ccsim::harness::Machine m(cfg);
//   ccsim::sync::TicketLock lock(m);
//   ccsim::Cycle t = m.run_all([&](ccsim::cpu::Cpu& c) -> ccsim::sim::Task {
//     co_await lock.acquire(c);
//     co_await c.think(50);
//     co_await lock.release(c);
//   });
#pragma once

#include "cpu/cpu.hpp"
#include "cpu/processor.hpp"
#include "harness/cli.hpp"
#include "harness/figure.hpp"
#include "harness/machine.hpp"
#include "harness/trajectory.hpp"
#include "harness/workloads.hpp"
#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/memory_module.hpp"
#include "mem/shared_alloc.hpp"
#include "mem/write_buffer.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/cycle_accounting.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/perfetto_sink.hpp"
#include "obs/sampler.hpp"
#include "obs/sharing.hpp"
#include "obs/trace.hpp"
#include "proto/node.hpp"
#include "proto/protocol.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "stats/counters.hpp"
#include "stats/json.hpp"
#include "stats/miss_classifier.hpp"
#include "stats/report.hpp"
#include "stats/update_classifier.hpp"
#include "sync/atomic_reduction.hpp"
#include "sync/barriers.hpp"
#include "sync/magic_sync.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/reductions.hpp"
#include "sync/simple_locks.hpp"
#include "sync/sync.hpp"
#include "sync/ticket_lock.hpp"
