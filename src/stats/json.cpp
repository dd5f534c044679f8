#include "stats/json.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace ccsim::stats {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  return buf;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes "key":
  }
  if (!first_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  os_ << '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  first_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  os_ << '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  first_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  os_ << '"' << json_escape(k) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  os_ << json;
  return *this;
}

void to_json(std::ostream& os, const Counters& c) {
  JsonWriter w(os);
  w.begin_object();

  w.key("misses").begin_object();
  w.key("by").begin_object();
  for (std::size_t i = 0; i < kMissClasses; ++i) {
    const auto cls = static_cast<MissClass>(i);
    w.key(to_string(cls)).value(c.misses[cls]);
  }
  w.end_object();
  w.key("exclusive_requests").value(c.misses.exclusive_requests);
  w.key("total").value(c.misses.total());
  w.key("useful").value(c.misses.useful());
  w.end_object();

  w.key("updates").begin_object();
  w.key("by").begin_object();
  for (std::size_t i = 0; i < kUpdateClasses; ++i) {
    const auto cls = static_cast<UpdateClass>(i);
    w.key(to_string(cls)).value(c.updates[cls]);
  }
  w.end_object();
  w.key("total").value(c.updates.total());
  w.key("useful").value(c.updates.useful());
  w.end_object();

  w.key("net").begin_object();
  w.key("messages").value(c.net.messages);
  w.key("flits").value(c.net.flits);
  w.key("hops").value(c.net.hops);
  w.key("local").value(c.net.local);
  w.key("by_type").begin_object();
  for (std::size_t i = 0; i < kMsgTypeCount; ++i) {
    if (c.net.by_type[i] == 0) continue;
    w.key(net::to_string(static_cast<net::MsgType>(i))).value(c.net.by_type[i]);
  }
  w.end_object();
  w.end_object();

  w.key("mem").begin_object();
  w.key("shared_reads").value(c.mem.shared_reads);
  w.key("shared_writes").value(c.mem.shared_writes);
  w.key("read_hits").value(c.mem.read_hits);
  w.key("write_hits").value(c.mem.write_hits);
  w.key("atomics").value(c.mem.atomics);
  w.key("write_buffer_stalls").value(c.mem.write_buffer_stalls);
  w.key("fence_stall_cycles").value(c.mem.fence_stall_cycles);
  w.end_object();

  w.end_object();
}

std::string to_json(const Counters& c) {
  std::ostringstream os;
  to_json(os, c);
  return os.str();
}

void histogram_to_json(JsonWriter& w, const LatencyHistogram& h) {
  w.begin_object();
  w.key("n").value(h.count());
  w.key("mean").value(h.mean());
  w.key("min").value(h.min());
  w.key("max").value(h.max());
  w.key("p50").value(h.percentile(0.50));
  w.key("p90").value(h.percentile(0.90));
  w.key("p99").value(h.percentile(0.99));
  w.key("buckets").begin_array();
  for (const LatencyHistogram::Bucket& b : h.nonzero_buckets()) {
    w.begin_object();
    w.key("lo").value(b.lo);
    w.key("hi").value(b.hi);
    w.key("n").value(b.count);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw std::runtime_error("json: missing key \"" + std::string(key) + '"');
}

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume("true")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume("false")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        return v;
      }
      case 'n': {
        if (!consume("null")) fail("bad literal");
        return {};
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our own writers only escape control characters; render other
          // code points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string text(s_.substr(start, pos_ - start));
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    try {
      v.number = std::stod(text);
    } catch (...) {
      fail("bad number");
    }
    if (text.find_first_of(".eE-") == std::string::npos) {
      try {
        v.integer = std::stoull(text);
        v.is_integer = true;
      } catch (...) {
        // magnitude beyond uint64: keep the double only
      }
    }
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

} // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

} // namespace ccsim::stats
