// Observer outputs pinned under every protocol.
//
// The other observer tests compare a run with observers on against one
// with them off, which cannot notice a transition reported to the wrong
// observer (or to none). These tests run one stress cell and one MCS-lock
// cell under WI, PU and CU with the invariant checker, the sharing tracker
// (sharing report and hot-block list) and the cycle ledger all attached,
// and pin the FNV-1a digest of each run's JSON document -- which carries
// "invariant_checks", "hot_blocks", "sharing" and "profile". A digest
// changes whenever a simulated result or an observer's output does; if that
// is intended, print the new digests with --gtest_also_run_disabled_tests
// and update the table. A last test checks that the tracker's two reports
// read the same whether or not the other one is switched on.
#include "harness/obs_session.hpp"
#include "harness/stress.hpp"
#include "harness/workloads.hpp"
#include "stats/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace {

using namespace ccsim;
using harness::MachineConfig;
using proto::Protocol;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

MachineConfig observed(Protocol p) {
  MachineConfig cfg;
  cfg.nprocs = 8;
  cfg.protocol = p;
  cfg.obs.check_invariants = true;
  cfg.obs.sharing = true;
  cfg.obs.hot_blocks = true;
  cfg.obs.hot_top_k = 1u << 20;  // every touched block
  cfg.obs.profile = true;
  return cfg;
}

std::string run_document(const harness::RunResult& r) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  harness::write_run_json(w, "pinned", r);
  return os.str();
}

std::string stress_document(Protocol p) {
  harness::StressParams sp;
  sp.seed = 1;
  return run_document(harness::run_stress_cell(observed(p), sp));
}

std::string mcs_document(Protocol p) {
  harness::LockParams lp;
  lp.total_acquires = 256;
  return run_document(
      harness::run_lock_experiment(observed(p), harness::LockKind::Mcs, lp));
}

struct Pin {
  Protocol protocol;
  std::uint64_t stress;
  std::uint64_t mcs;
};

constexpr Pin kPins[] = {
    {Protocol::WI, 0x3d4bf983f6c35f84ULL, 0x7f5cf6eb8391c1e5ULL},
    {Protocol::PU, 0xca3ecfdc29a7078dULL, 0x939ecf22e5dae33eULL},
    {Protocol::CU, 0x58854f0af1b6da44ULL, 0x8c95c868ddb41d27ULL},
};

void expect_all_observers(const std::string& doc) {
  for (const char* key :
       {"\"invariant_checks\"", "\"hot_blocks\"", "\"sharing\"", "\"profile\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key << " missing";
}

TEST(ObserverPins, StressCellDocuments) {
  for (const Pin& pin : kPins) {
    const std::string doc = stress_document(pin.protocol);
    expect_all_observers(doc);
    EXPECT_EQ(fnv1a(doc), pin.stress) << proto::to_string(pin.protocol);
  }
}

TEST(ObserverPins, McsLockDocuments) {
  for (const Pin& pin : kPins) {
    const std::string doc = mcs_document(pin.protocol);
    expect_all_observers(doc);
    EXPECT_EQ(fnv1a(doc), pin.mcs) << proto::to_string(pin.protocol);
  }
}

/// The hot-block list of `r`, alone in a run document.
std::string hot_document(const harness::RunResult& r) {
  harness::RunResult h;
  h.hot = r.hot;
  return run_document(h);
}

std::string sharing_document(const harness::RunResult& r) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  harness::write_sharing_fields(w, r.sharing);
  w.end_object();
  return os.str();
}

TEST(SharingTracker, HotBlocksAndSharingReportStayApart) {
  // One tracker serves obs.hot_blocks and obs.sharing: each report must not
  // change when the other is switched on, and must stay empty when its own
  // switch is off.
  const auto run = [](Protocol p, bool stress, bool hot, bool sharing) {
    MachineConfig cfg;
    cfg.nprocs = 8;
    cfg.protocol = p;
    cfg.obs.hot_blocks = hot;
    cfg.obs.hot_top_k = 1u << 20;  // every block with a nonzero score
    cfg.obs.sharing = sharing;
    harness::StressParams sp;
    sp.seed = 1;
    harness::LockParams lp;
    lp.total_acquires = 256;
    return stress ? harness::run_stress_cell(cfg, sp)
                  : harness::run_lock_experiment(cfg, harness::LockKind::Mcs, lp);
  };
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU, Protocol::Hybrid}) {
    for (bool stress : {false, true}) {
      SCOPED_TRACE(std::string(proto::to_string(p)) + (stress ? " stress" : " mcs"));
      const harness::RunResult hot = run(p, stress, true, false);
      const harness::RunResult sharing = run(p, stress, false, true);
      const harness::RunResult both = run(p, stress, true, true);
      ASSERT_FALSE(hot.hot.empty());
      ASSERT_FALSE(sharing.sharing.blocks.empty());
      EXPECT_EQ(hot_document(hot), hot_document(both));
      EXPECT_EQ(sharing_document(sharing), sharing_document(both));
      EXPECT_FALSE(hot.sharing.enabled());
      EXPECT_TRUE(sharing.hot.empty());
    }
  }
}

TEST(ObserverPins, DISABLED_PrintDigests) {
  for (const Pin& pin : kPins)
    std::printf("    {Protocol::%s, 0x%llxULL, 0x%llxULL},\n",
                std::string(proto::to_string(pin.protocol)).c_str(),
                static_cast<unsigned long long>(fnv1a(stress_document(pin.protocol))),
                static_cast<unsigned long long>(fnv1a(mcs_document(pin.protocol))));
}

} // namespace
