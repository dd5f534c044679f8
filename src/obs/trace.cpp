#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace ccsim::obs {

std::string_view to_string(TraceCat c) noexcept {
  switch (c) {
    case TraceCat::Cache: return "cache";
    case TraceCat::Home: return "home";
    case TraceCat::Net: return "net";
  }
  return "?";
}

namespace {
/// Track prefix controllers use in formatted lines ("cache3", "home1").
std::string_view side_of(TraceCat c) noexcept {
  switch (c) {
    case TraceCat::Cache: return "cache";
    case TraceCat::Home: return "home";
    default: return "node";
  }
}
} // namespace

std::string format_event(const TraceEvent& e) {
  char buf[320];
  int n = std::snprintf(buf, sizeof buf, "t=%" PRIu64 " [%.*s] ", e.cycle,
                        static_cast<int>(to_string(e.cat).size()),
                        to_string(e.cat).data());
  const auto room = [&] { return sizeof buf - static_cast<std::size_t>(n); };
  switch (e.kind) {
    case EventKind::MsgRecv:
      n += std::snprintf(buf + n, room(), "%.*s%u <- %.*s addr=0x%" PRIx64 " from %u",
                         static_cast<int>(side_of(e.cat).size()), side_of(e.cat).data(),
                         e.node, static_cast<int>(net::to_string(e.msg).size()),
                         net::to_string(e.msg).data(), e.addr, e.peer);
      if (e.payload != 0)
        n += std::snprintf(buf + n, room(), " pay=%" PRIu64, e.payload);
      break;
    case EventKind::MsgSend:
      n += std::snprintf(buf + n, room(), "node%u -> %.*s addr=0x%" PRIx64 " to %u",
                         e.node, static_cast<int>(net::to_string(e.msg).size()),
                         net::to_string(e.msg).data(), e.addr, e.peer);
      break;
  }
  return std::string(buf, static_cast<std::size_t>(n));
}

void TextSink::begin_run(const std::string& label) {
  os_ << "# run: " << label << '\n';
}

void TextSink::on_event(const TraceEvent& e) { os_ << format_event(e) << '\n'; }

void TraceLog::event(const TraceEvent& e) {
  ring_.push(e);
  for (TraceSink* s : sinks_) s->on_event(e);
}

std::string TraceLog::tail(std::size_t n) const {
  std::string out;
  ring_.for_last(n, [&out](const TraceEvent& e) {
    out += format_event(e);
    out += '\n';
  });
  return out;
}

} // namespace ccsim::obs
