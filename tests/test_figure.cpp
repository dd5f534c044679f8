// Table formatting / CLI parsing used by the figure benches.
#include "harness/cli.hpp"
#include "harness/figure.hpp"
#include "harness/obs_session.hpp"
#include "stats/counters.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace ccsim;
using harness::BenchOptions;
using stats::Table;

TEST(Table, AlignsColumns) {
  Table t = Table::figure({"name", "p=1", "p=32"});
  t.add_row({"ticket/WI", "12.5", "2657.1"});
  t.add_row({"MCS/CU", "7.0", "190.0"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("ticket/WI"), std::string::npos);
  EXPECT_NE(out.find("2657.1"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CsvOutput) {
  Table t = Table::figure({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 1), "3.1");
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(Table::num(std::uint64_t{12345}), "12345");
}

TEST(Figure, PaperProcCounts) {
  // The machine sizes the paper sweeps are every bench's default --procs.
  char prog[] = "bench";
  char* argv[] = {prog};
  EXPECT_EQ(harness::parse_bench_args(1, argv).procs,
            (std::vector<unsigned>{1, 2, 4, 8, 16, 32}));
}

TEST(Figure, MissCellsMatchHeaders) {
  stats::MissCounts m;
  m[stats::MissClass::Cold] = 3;
  m.exclusive_requests = 7;
  const auto cells = harness::miss_cells(m);
  ASSERT_EQ(cells.size(), harness::miss_headers().size());
  EXPECT_EQ(cells[0], "3");
  EXPECT_EQ(cells[5], "3");  // total
  EXPECT_EQ(cells[6], "7");  // excl-req
}

TEST(Figure, UpdateCellsMatchHeaders) {
  stats::UpdateCounts u;
  u[stats::UpdateClass::TrueSharing] = 10;
  u[stats::UpdateClass::Drop] = 2;
  const auto cells = harness::update_cells(u);
  ASSERT_EQ(cells.size(), harness::update_headers().size());
  EXPECT_EQ(cells[0], "10");
  EXPECT_EQ(cells[5], "2");
  EXPECT_EQ(cells[6], "12");  // total
}

TEST(Cli, Defaults) {
  unsetenv("REPRO_SCALE");
  char prog[] = "bench";
  char* argv[] = {prog};
  const BenchOptions o = harness::parse_bench_args(1, argv);
  EXPECT_FALSE(o.csv);
  EXPECT_EQ(o.procs.size(), 6u);
  EXPECT_GT(o.scale, 0.0);
}

TEST(Cli, PaperFlag) {
  char prog[] = "bench", paper[] = "--paper";
  char* argv[] = {prog, paper};
  EXPECT_EQ(harness::parse_bench_args(2, argv).scale, 1.0);
}

TEST(Cli, ScaleAndProcsAndCsv) {
  char prog[] = "bench", s[] = "--scale=0.25", p[] = "--procs=2,8", c[] = "--csv";
  char* argv[] = {prog, s, p, c};
  const BenchOptions o = harness::parse_bench_args(4, argv);
  EXPECT_DOUBLE_EQ(o.scale, 0.25);
  EXPECT_EQ(o.procs, (std::vector<unsigned>{2, 8}));
  EXPECT_TRUE(o.csv);
}

TEST(Cli, ScaledCountsHaveFloor) {
  char prog[] = "bench", s[] = "--scale=0.0001";
  char* argv[] = {prog, s};
  const BenchOptions o = harness::parse_bench_args(2, argv);
  EXPECT_EQ(o.scaled(32000), 32u);
}

TEST(Cli, RejectsBadArgs) {
  char prog[] = "bench", bad[] = "--bogus";
  char* argv[] = {prog, bad};
  EXPECT_THROW(harness::parse_bench_args(2, argv), std::invalid_argument);
  char s2[] = "--scale=7";
  char* argv2[] = {prog, s2};
  EXPECT_THROW(harness::parse_bench_args(2, argv2), std::invalid_argument);
}

TEST(Cli, RejectsBadProcsItems) {
  char prog[] = "bench";
  for (std::string bad : {"--procs=abc", "--procs=4x", "--procs=-1", "--procs=4,,8",
                          "--procs=0", "--procs=65"}) {
    char* argv[] = {prog, bad.data()};
    try {
      (void)harness::parse_bench_args(2, argv);
      ADD_FAILURE() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--procs"), std::string::npos) << e.what();
    }
  }
  char ok[] = "--procs=1,64";
  char* argv[] = {prog, ok};
  EXPECT_EQ(harness::parse_bench_args(2, argv).procs, (std::vector<unsigned>{1, 64}));
}

/// Run parse_flags over `args` and return the std::invalid_argument text
/// ("" when the arguments parse).
std::string flag_error(const harness::Flags& table, std::vector<std::string> args) {
  static char prog[] = "prog";
  std::vector<char*> argv{prog};
  for (std::string& a : args) argv.push_back(a.data());
  try {
    harness::parse_flags(static_cast<int>(argv.size()), argv.data(), "prog", table);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// A small flag table writing into its own fields (the setters capture
/// `this`, so a fixture must not be copied).
struct TableFixture {
  unsigned jobs = 0;
  bool quiet = false;
  std::vector<unsigned> procs;
  harness::Flags table{
      {"--jobs", "N",
       [this](const std::string& v) { jobs = harness::parse_unsigned(v); }},
      {"--quiet", "", [this](const std::string&) { quiet = true; }},
      {"--procs", "a,b,...",
       [this](const std::string& v) {
         procs = harness::parse_list(v, harness::parse_nodes);
       }},
  };
};

TEST(Cli, FlagTableRejectsWithTheFlagName) {
  TableFixture f;
  const std::vector<std::pair<std::string, std::vector<std::string>>> bad{
      {"--quiet", {"--quiet=1"}},   // a switch given a value
      {"--bogus", {"--bogus"}},     // unknown flag
      {"--jobs", {"--jobs"}},       // missing value
      {"--jobs", {"--jobs", "16abc"}},
      {"--jobs", {"--jobs=-1"}},
      {"--jobs", {"--jobs", "5x"}},
      {"--jobs", {"--jobs= 5"}},
      {"--procs", {"--procs", "16abc"}},
      {"--procs", {"--procs=-1"}},
      {"--procs", {"--procs", "1,,2"}},
      {"--procs", {"--procs", "4,"}},
      {"--procs", {"--procs", "0"}},
      {"--procs", {"--procs=65"}},
  };
  for (const auto& [flag, args] : bad) {
    const std::string err = flag_error(f.table, args);
    EXPECT_NE(err.find(flag), std::string::npos) << args.back() << " -> " << err;
  }
}

TEST(Cli, BothValueFormsParseTheSame) {
  TableFixture a, b;
  EXPECT_EQ(flag_error(a.table, {"--jobs", "3", "--procs", "1,64", "--quiet"}), "");
  EXPECT_EQ(flag_error(b.table, {"--jobs=3", "--procs=1,64", "--quiet"}), "");
  EXPECT_EQ(a.jobs, 3u);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.procs, (std::vector<unsigned>{1, 64}));
  EXPECT_EQ(a.procs, b.procs);
  EXPECT_TRUE(a.quiet && b.quiet);

  char prog[] = "bench", s1[] = "--scale", s2[] = "0.25", s3[] = "--scale=0.25";
  char* spaced[] = {prog, s1, s2};
  char* joined[] = {prog, s3};
  EXPECT_DOUBLE_EQ(harness::parse_bench_args(3, spaced).scale, 0.25);
  EXPECT_DOUBLE_EQ(harness::parse_bench_args(2, joined).scale, 0.25);
}

TEST(Cli, HotTopNeedsJson) {
  // --hot-top sizes the hot-block list, which only --json runs attribute.
  // The benches and protocol_explorer all build an ObsSession from their
  // parsed flags, and it rejects --hot-top alone.
  const auto session_error = [](std::vector<std::string> args) -> std::string {
    static char prog[] = "bench";
    std::vector<char*> argv{prog};
    for (std::string& a : args) argv.push_back(a.data());
    try {
      const BenchOptions o =
          harness::parse_bench_args(static_cast<int>(argv.size()), argv.data());
      harness::ObsSession session(o.obs, "bench");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string err = session_error({"--hot-top", "4"});
  EXPECT_NE(err.find("--hot-top"), std::string::npos) << err;
  EXPECT_NE(err.find("--json"), std::string::npos) << err;
  const std::string json = testing::TempDir() + "cli_hot_top.json";
  EXPECT_EQ(session_error({"--hot-top", "4", "--json", json}), "");
  EXPECT_EQ(session_error({"--json=" + json, "--hot-top=4"}), "");
  std::remove(json.c_str());
}

TEST(Cli, ValueParsers) {
  EXPECT_EQ(harness::parse_u64("0x5eed"), 0x5eedu);
  EXPECT_EQ(harness::parse_u64("010"), 10u);
  EXPECT_EQ(harness::parse_nodes("64"), 64u);
  EXPECT_THROW((void)harness::parse_u64(""), std::invalid_argument);
  EXPECT_THROW((void)harness::parse_u64("+1"), std::invalid_argument);
  EXPECT_THROW((void)harness::parse_u64("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW((void)harness::parse_unsigned("4294967296"), std::invalid_argument);
  EXPECT_THROW((void)harness::parse_scale("0"), std::invalid_argument);
  EXPECT_THROW((void)harness::parse_scale("0.5x"), std::invalid_argument);
  EXPECT_THROW((void)harness::parse_percent("101"), std::invalid_argument);
  EXPECT_EQ(harness::parse_protocol("cu"), proto::Protocol::CU);
  EXPECT_THROW((void)harness::parse_protocol("hybrid"), std::invalid_argument);
  EXPECT_EQ(harness::scaled(0.5, 5000), 2500u);
  EXPECT_EQ(harness::scaled(0.001, 5000), 32u);
}

TEST(Cli, PositiveNumbers) {
  // bench_compare's thresholds: a NaN or infinite threshold would switch
  // its gate off, and a trailing suffix must not be read as a number.
  EXPECT_DOUBLE_EQ(harness::parse_positive("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(harness::parse_positive("250"), 250.0);
  for (const char* bad : {"nan", "inf", "-inf", "5x", "0", "-1", "", " 5"})
    EXPECT_THROW((void)harness::parse_positive(bad), std::invalid_argument) << bad;
}

TEST(Cli, PositionalArguments) {
  double pct = 0;
  const harness::Flags table{
      {"--max-regress", "PCT",
       [&pct](const std::string& v) { pct = harness::parse_positive(v); }}};
  std::string a0 = "prog", a1 = "base.json", a2 = "--max-regress", a3 = "5",
              a4 = "cand.json";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), a4.data()};
  std::vector<std::string> files;
  harness::parse_flags(5, argv, "prog", table, &files);
  EXPECT_EQ(files, (std::vector<std::string>{"base.json", "cand.json"}));
  EXPECT_DOUBLE_EQ(pct, 5.0);
  // Without a positional list, a bare argument is still rejected.
  EXPECT_NE(flag_error(table, {"base.json"}).find("unknown argument"), std::string::npos);
}

TEST(Cli, UsageListsEveryFlag) {
  harness::ObsOptions o;
  const harness::Flags table = harness::obs_flags(o);
  const std::string u = harness::usage("protocol_explorer <family> <impl>", table);
  EXPECT_EQ(u.rfind("usage: protocol_explorer <family> <impl> [--json FILE]", 0), 0u)
      << u;
  for (const harness::Flag& f : table) {
    const std::string item =
        "[" + f.name + (f.metavar.empty() ? "" : " " + f.metavar) + "]";
    EXPECT_NE(u.find(item), std::string::npos) << item << " missing from\n" << u;
  }
  std::istringstream lines(u);
  for (std::string line; std::getline(lines, line);) EXPECT_LE(line.size(), 80u) << line;
}

TEST(Cli, EnvDefaultScale) {
  setenv("REPRO_SCALE", "0.5", 1);
  char prog[] = "bench";
  char* argv[] = {prog};
  EXPECT_DOUBLE_EQ(harness::parse_bench_args(1, argv).scale, 0.5);
  unsetenv("REPRO_SCALE");
}

TEST(Cli, EnvScaleIsValidated) {
  setenv("REPRO_SCALE", "0.5x", 1);
  char prog[] = "bench";
  char* argv[] = {prog};
  try {
    (void)harness::parse_bench_args(1, argv);
    ADD_FAILURE() << "REPRO_SCALE=0.5x accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("REPRO_SCALE"), std::string::npos) << e.what();
  }
  unsetenv("REPRO_SCALE");
}

} // namespace
