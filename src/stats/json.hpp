// Minimal streaming JSON writer and the counters -> JSON exporter.
//
// The writer tracks nesting and comma placement so callers only name keys
// and values; keys are emitted in call order, which makes every document
// this library produces byte-stable across runs (golden-file testable).
#pragma once

#include "stats/counters.hpp"
#include "stats/histogram.hpp"

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::stats {

/// `s` with JSON string escaping applied (quotes, backslashes, control
/// characters); no surrounding quotes.
[[nodiscard]] std::string json_escape(std::string_view s);

/// `v` in lowercase hex with a `0x` prefix ("0x1000003f"): how reports,
/// traces and JSON documents print addresses and values.
[[nodiscard]] std::string hex(std::uint64_t v);

class JsonWriter {
public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object; follow with exactly one value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// Emit preserialized JSON verbatim in value position.
  JsonWriter& raw(std::string_view json);

private:
  void comma();

  std::ostream& os_;
  std::vector<bool> first_{};  ///< per open container: nothing emitted yet
  bool pending_key_ = false;
};

/// Serialize one run's counters: misses by class, updates by class, network
/// volume and per-message-type profile, memory-system activity. Key order
/// is fixed (declaration order of the enums and structs).
void to_json(std::ostream& os, const Counters& c);
[[nodiscard]] std::string to_json(const Counters& c);

/// Serialize a latency histogram in value position: summary statistics
/// (n, mean, min, max, p50/p90/p99) plus the full occupied-bucket contents
/// (inclusive bounds and counts), so external tooling can re-bin and merge
/// distributions instead of being limited to our percentile choices.
void histogram_to_json(JsonWriter& w, const LatencyHistogram& h);

// ---------------------------------------------------------------------
// Minimal JSON reader (for tools that consume our own documents, e.g.
// tools/bench_compare diffing two bench-trajectory files). Accepts
// standard JSON; numbers are kept as doubles plus the exact uint64 when
// the text is a non-negative integer.
// ---------------------------------------------------------------------

class JsonValue {
public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t integer = 0;  ///< exact value when the text was 0..2^64-1
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered object members.
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// find() that throws std::runtime_error naming the missing key.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parse one JSON document. Throws std::runtime_error (with byte offset)
/// on malformed input or trailing garbage.
[[nodiscard]] JsonValue parse_json(std::string_view text);

} // namespace ccsim::stats
