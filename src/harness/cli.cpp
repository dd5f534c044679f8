#include "harness/cli.hpp"

#include "mem/directory.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ccsim::harness {

namespace {
std::vector<unsigned> parse_list(const std::string& s) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long n = std::strtoul(item.c_str(), &end, 10);
    if (item.empty() || !std::isdigit(static_cast<unsigned char>(item[0])) ||
        *end != '\0' || n == 0 || n > mem::kMaxNodes)
      throw std::invalid_argument("--procs: '" + item + "' is not a node count in [1, " +
                                  std::to_string(mem::kMaxNodes) + "]");
    out.push_back(static_cast<unsigned>(n));
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("--procs needs at least one value");
  return out;
}

/// Match `--flag=value` or `--flag value`; on a match, `value` is set and
/// `i` is left on the last argv slot consumed.
bool take_value(const std::string& flag, int argc, char** argv, int& i,
                std::string& value) {
  const std::string a = argv[i];
  if (a.rfind(flag + "=", 0) == 0) {
    value = a.substr(flag.size() + 1);
    return true;
  }
  if (a == flag) {
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    value = argv[++i];
    return true;
  }
  return false;
}

obs::TraceFormat parse_trace_format(const std::string& s) {
  if (s == "ring") return obs::TraceFormat::Ring;
  if (s == "jsonl") return obs::TraceFormat::Jsonl;
  if (s == "perfetto") return obs::TraceFormat::Perfetto;
  throw std::invalid_argument("--trace-format must be ring, jsonl or perfetto");
}
} // namespace

bool parse_obs_arg(ObsOptions& o, int argc, char** argv, int& i) {
  std::string v;
  if (take_value("--json", argc, argv, i, v)) {
    o.json_path = v;
  } else if (take_value("--trace-out", argc, argv, i, v)) {
    o.trace_path = v;
  } else if (take_value("--trace-format", argc, argv, i, v)) {
    o.trace_format = parse_trace_format(v);
  } else if (take_value("--sample-interval", argc, argv, i, v)) {
    o.sample_interval = std::strtoull(v.c_str(), nullptr, 10);
    if (o.sample_interval == 0)
      throw std::invalid_argument("--sample-interval must be > 0");
  } else if (take_value("--hot-top", argc, argv, i, v)) {
    o.hot_top_k = std::strtoull(v.c_str(), nullptr, 10);
    if (o.hot_top_k == 0) throw std::invalid_argument("--hot-top must be > 0");
  } else if (std::strcmp(argv[i], "--profile") == 0) {
    o.profile = true;
  } else if (std::strcmp(argv[i], "--host-metrics") == 0) {
    o.host_metrics = true;
  } else if (std::strcmp(argv[i], "--sharing") == 0) {
    o.sharing = true;
  } else {
    return false;
  }
  return true;
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions o;
  if (const char* env = std::getenv("REPRO_SCALE")) o.scale = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (a == "--paper") {
      o.scale = 1.0;
    } else if (a.rfind("--scale=", 0) == 0) {
      o.scale = std::atof(a.c_str() + 8);
    } else if (a.rfind("--procs=", 0) == 0) {
      o.procs = parse_list(a.substr(8));
    } else if (a == "--csv") {
      o.csv = true;
    } else if (take_value("--jobs", argc, argv, i, v)) {
      char* end = nullptr;
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0')
        throw std::invalid_argument("--jobs needs a non-negative integer");
      o.jobs = static_cast<unsigned>(n);
    } else if (parse_obs_arg(o.obs, argc, argv, i)) {
      // consumed (possibly including a separate value argument)
    } else if (a == "--help" || a == "-h") {
      // handled by the bench's own usage text; ignore here
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (o.scale <= 0.0 || o.scale > 1.0)
    throw std::invalid_argument("scale must be in (0, 1]");
  return o;
}

} // namespace ccsim::harness
