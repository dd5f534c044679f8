#include "obs/jsonl_sink.hpp"

#include "stats/json.hpp"

namespace ccsim::obs {

void JsonlSink::begin_run(const std::string& label) {
  os_ << "{\"run\":\"" << stats::json_escape(label) << "\"}\n";
}

void JsonlSink::on_event(const TraceEvent& e) {
  stats::JsonWriter w(os_);
  w.begin_object();
  w.key("t").value(static_cast<std::uint64_t>(e.cycle));
  if (e.dur != 0) w.key("dur").value(static_cast<std::uint64_t>(e.dur));
  w.key("cat").value(to_string(e.cat));
  w.key("kind").value(e.kind == EventKind::MsgSend ? "send" : "recv");
  if (e.node != kInvalidNode) w.key("node").value(e.node);
  if (e.peer != kInvalidNode) w.key("peer").value(e.peer);
  w.key("msg").value(net::to_string(e.msg));
  w.key("addr").value(stats::hex(e.addr));
  if (e.payload != 0) w.key("pay").value(e.payload);
  if (e.flow != 0) w.key("flow").value(e.flow);
  w.end_object();
  os_ << '\n';
}

void JsonlSink::finish() { os_.flush(); }

} // namespace ccsim::obs
