#include "harness/cli.hpp"

#include "mem/directory.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

namespace ccsim::harness {

std::string usage(std::string_view prog, const Flags& table) {
  std::string out = "usage: " + std::string(prog);
  const std::size_t indent = out.size();
  std::size_t line_start = 0;
  for (const Flag& f : table) {
    std::string item = " [" + f.name;
    if (!f.metavar.empty()) item += " " + f.metavar;
    item += "]";
    if (out.size() - line_start + item.size() > 80) {
      out += '\n';
      line_start = out.size();
      out.append(indent, ' ');
    }
    out += item;
  }
  return out + "\n";
}

void parse_flags(int argc, char** argv, std::string_view prog, const Flags& table) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(prog, table);
      std::exit(0);
    }
    const std::size_t eq = arg.find('=');
    const auto f = std::find_if(table.begin(), table.end(), [&](const Flag& x) {
      return x.name == arg.substr(0, eq);
    });
    if (f == table.end())
      throw std::invalid_argument("unknown argument: " + std::string(arg));
    std::string value;
    if (f->metavar.empty()) {
      if (eq != std::string_view::npos)
        throw std::invalid_argument(f->name + " takes no value");
    } else if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument(f->name + " needs a value");
    }
    try {
      f->set(value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(f->name + ": " + e.what());
    }
  }
}

std::string program_name(const char* argv0) {
  std::string s = argv0 ? argv0 : "bench";
  if (const auto slash = s.find_last_of("/\\"); slash != std::string::npos)
    s.erase(0, slash + 1);
  if (const auto dot = s.rfind('.'); dot != std::string::npos && dot > 0)
    s.erase(dot);
  return s;
}

std::uint64_t parse_u64(std::string_view s) {
  const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  const std::string_view digits = hex ? s.substr(2) : s;
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v, hex ? 16 : 10);
  if (digits.empty() || ec != std::errc{} || end != digits.data() + digits.size())
    throw std::invalid_argument("'" + std::string(s) + "' is not an unsigned integer");
  return v;
}

unsigned parse_unsigned(std::string_view s) {
  const std::uint64_t v = parse_u64(s);
  if (v > std::numeric_limits<unsigned>::max())
    throw std::invalid_argument("'" + std::string(s) + "' is too large");
  return static_cast<unsigned>(v);
}

unsigned parse_nodes(std::string_view s) {
  std::uint64_t n = 0;
  try {
    n = parse_u64(s);
  } catch (const std::invalid_argument&) {
  }
  if (n == 0 || n > mem::kMaxNodes)
    throw std::invalid_argument("'" + std::string(s) + "' is not a node count in [1, " +
                                std::to_string(mem::kMaxNodes) + "]");
  return static_cast<unsigned>(n);
}

namespace {
/// A whole-string finite decimal number.
double parse_double(std::string_view s) {
  const std::string str(s);
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (str.empty() || std::isspace(static_cast<unsigned char>(str[0])) ||
      *end != '\0' || !std::isfinite(v))
    throw std::invalid_argument("'" + str + "' is not a number");
  return v;
}
} // namespace

double parse_scale(std::string_view s) {
  const double v = parse_double(s);
  if (v <= 0.0 || v > 1.0) throw std::invalid_argument("scale must be in (0, 1]");
  return v;
}

double parse_percent(std::string_view s) {
  const double v = parse_double(s);
  if (v < 0.0 || v > 100.0) throw std::invalid_argument("must be in [0, 100]");
  return v;
}

proto::Protocol parse_protocol(std::string_view s) {
  constexpr proto::Protocol kPure[] = {proto::Protocol::WI, proto::Protocol::PU,
                                       proto::Protocol::CU};
  return parse_choice(s, kPure, [](proto::Protocol p) { return proto::to_string(p); });
}

std::vector<std::string> split_list(std::string_view s) {
  std::vector<std::string> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    if (comma == pos)
      throw std::invalid_argument("'" + std::string(s) + "' has an empty list item");
    out.emplace_back(s.substr(pos, comma - pos));
    if (comma == s.size()) return out;
    pos = comma + 1;
  }
}

std::uint64_t scaled(double scale, std::uint64_t paper_count) {
  const auto n = static_cast<std::uint64_t>(static_cast<double>(paper_count) * scale);
  return n < 32 ? 32 : n;
}

Flags obs_flags(ObsOptions& o) {
  return {
      {"--json", "FILE", [&o](const std::string& v) { o.json_path = v; }},
      {"--trace-out", "FILE", [&o](const std::string& v) { o.trace_path = v; }},
      {"--trace-format", "ring|jsonl|perfetto",
       [&o](const std::string& v) {
         constexpr obs::TraceFormat kFormats[] = {obs::TraceFormat::Ring,
                                                  obs::TraceFormat::Jsonl,
                                                  obs::TraceFormat::Perfetto};
         o.trace_format = parse_choice(v, kFormats, [](obs::TraceFormat f) {
           return f == obs::TraceFormat::Ring    ? "ring"
                  : f == obs::TraceFormat::Jsonl ? "jsonl"
                                                 : "perfetto";
         });
       }},
      {"--sample-interval", "N",
       [&o](const std::string& v) { o.sample_interval = positive(parse_u64(v)); }},
      {"--hot-top", "K",
       [&o](const std::string& v) { o.hot_top_k = positive(parse_u64(v)); }},
      {"--profile", "", [&o](const std::string&) { o.profile = true; }},
      {"--host-metrics", "", [&o](const std::string&) { o.host_metrics = true; }},
      {"--sharing", "", [&o](const std::string&) { o.sharing = true; }},
  };
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions o;
  if (const char* env = std::getenv("REPRO_SCALE")) o.scale = std::atof(env);
  Flags table{
      {"--paper", "", [&o](const std::string&) { o.scale = 1.0; }},
      {"--scale", "X", [&o](const std::string& v) { o.scale = parse_scale(v); }},
      {"--procs", "a,b,...",
       [&o](const std::string& v) { o.procs = parse_list(v, parse_nodes); }},
      {"--csv", "", [&o](const std::string&) { o.csv = true; }},
      {"--jobs", "N", [&o](const std::string& v) { o.jobs = parse_unsigned(v); }},
  };
  for (Flag& f : obs_flags(o.obs)) table.push_back(std::move(f));
  parse_flags(argc, argv, program_name(argc > 0 ? argv[0] : nullptr), table);
  if (o.scale <= 0.0 || o.scale > 1.0)
    throw std::invalid_argument("REPRO_SCALE must be in (0, 1]");
  return o;
}

} // namespace ccsim::harness
