// False sharing, demonstrated and diagnosed by the sharing classifier.
//
// Two runs of the same program: every processor repeatedly increments its
// own private counter -- no data is logically shared. In the "unpadded"
// layout the counters are packed one word apart, so eight of them land in
// each 64-byte block and the block ping-pongs between writers; in the
// "padded" layout each counter gets its own block. The --sharing tracker
// classifies the packed blocks as false-shared (word-disjoint accessors in
// one block) and the padded ones as private, and its projected costs show
// what the padding buys.
//
//   $ ./false_sharing [--procs N] [--iters N]     (--procs in [1, 64])
//
// Exits nonzero if the classifier misses the diagnosis (the padded layout
// must come out clean); tests/test_examples runs it that way.
#include "ccsim.hpp"

#include <iostream>
#include <string>

using namespace ccsim;

namespace {

struct Layout {
  const char* label;
  obs::SharingReport report;
  Cycle cycles = 0;
};

/// Run the increment loop with counter i at `base + i * stride` and return
/// the run's sharing report.
Layout run_layout(const char* label, unsigned procs, unsigned iters,
                  std::size_t stride) {
  harness::MachineConfig cfg;
  cfg.nprocs = procs;
  cfg.protocol = proto::Protocol::WI;
  cfg.obs.sharing = true;
  harness::Machine m(cfg);

  const Addr base = m.alloc().allocate_on(
      0, procs * stride, stride >= mem::kBlockSize ? "counters.padded"
                                                   : "counters.unpadded");
  Layout out;
  out.label = label;
  out.cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
    const Addr mine = base + c.id() * stride;
    for (unsigned i = 0; i < iters; ++i) {
      const std::uint64_t v = co_await c.load(mine);
      co_await c.store(mine, v + 1);
      co_await c.think(20);
    }
  });
  out.report = m.sharing_report();
  return out;
}

/// Every block of the allocation must carry the expected pattern.
bool all_blocks(const obs::SharingReport& r, obs::SharingPattern want) {
  bool any = false;
  for (const obs::SharingReport::Row& row : r.blocks) {
    any = true;
    if (row.pattern != want) return false;
  }
  return any;
}

} // namespace

int main(int argc, char** argv) {
  unsigned procs = 8;
  unsigned iters = 200;
  try {
    harness::parse_flags(
        argc, argv, "false_sharing",
        {{"--procs", "N", [&](const std::string& v) { procs = harness::parse_nodes(v); }},
         {"--iters", "N", [&](const std::string& v) {
            iters = harness::positive(harness::parse_unsigned(v));
          }}});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  const Layout unpadded =
      run_layout("unpadded", procs, iters, mem::kWordSize);
  const Layout padded =
      run_layout("padded", procs, iters, mem::kBlockSize);

  for (const Layout* l : {&unpadded, &padded}) {
    std::cout << l->label << ": " << l->cycles << " cycles\n";
    stats::print_sharing(std::cout, l->report);
    std::cout << '\n';
  }
  const double speedup = padded.cycles != 0
                             ? static_cast<double>(unpadded.cycles) /
                                   static_cast<double>(padded.cycles)
                             : 0.0;
  std::cout << "padding speedup: " << speedup << "x\n";

  // The diagnosis the example exists to demonstrate. With one processor
  // there is no sharing at all, so both layouts must come out private.
  const obs::SharingPattern packed_want =
      procs > 1 ? obs::SharingPattern::FalseShared : obs::SharingPattern::Private;
  if (!all_blocks(unpadded.report, packed_want)) {
    std::cerr << "FAIL: unpadded layout not classified false-shared\n";
    return 1;
  }
  if (!all_blocks(padded.report, obs::SharingPattern::Private)) {
    std::cerr << "FAIL: padded layout not classified private\n";
    return 1;
  }
  std::cout << "OK: unpadded flagged "
            << obs::to_string(packed_want) << ", padded clean\n";
  return 0;
}
