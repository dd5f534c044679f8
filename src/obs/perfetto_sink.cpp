#include "obs/perfetto_sink.hpp"

#include "stats/json.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

namespace ccsim::obs {

namespace {

std::string u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

/// `"pid":P,"tid":N,"ts":T` -- the track-and-time triple of every record.
std::string where(int pid, NodeId tid, Cycle ts) {
  return "\"pid\":" + u64(static_cast<std::uint64_t>(pid)) +
         ",\"tid\":" + u64(tid) + ",\"ts\":" + u64(ts);
}

} // namespace

PerfettoSink::PerfettoSink(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

void PerfettoSink::emit(const std::string& json) {
  if (!first_record_) os_ << ",\n";
  first_record_ = false;
  os_ << json;
}

void PerfettoSink::begin_run(const std::string& label) {
  flush_run();
  ++pid_;
  run_label_ = label;
}

void PerfettoSink::on_event(const TraceEvent& e) {
  if (pid_ == 0) {  // standalone use without begin_run(): one anonymous run
    pid_ = 1;
    run_label_ = "run";
  }
  buf_.push_back(e);
}

void PerfettoSink::on_samples(const IntervalSeries& s) {
  if (pid_ == 0) {
    pid_ = 1;
    run_label_ = "run";
  }
  samples_ = s;
}

void PerfettoSink::on_profile(const ProfileSnapshot& p) {
  if (pid_ == 0) {
    pid_ = 1;
    run_label_ = "run";
  }
  profile_ = p;
}

void PerfettoSink::on_sharing(const SharingReport& r) {
  if (pid_ == 0) {
    pid_ = 1;
    run_label_ = "run";
  }
  sharing_ = r;
}

void PerfettoSink::flush_run() {
  if (pid_ == 0 || (buf_.empty() && samples_.empty() && !profile_.enabled() &&
                    !sharing_.enabled())) {
    buf_.clear();
    return;
  }

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + u64(pid_) +
       ",\"args\":{\"name\":\"" + stats::json_escape(run_label_) + "\"}}");

  std::set<NodeId> nodes;
  for (const TraceEvent& e : buf_)
    if (e.node != kInvalidNode) nodes.insert(e.node);
  for (NodeId n : nodes)
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + u64(pid_) +
         ",\"tid\":" + u64(n) + ",\"args\":{\"name\":\"node" + u64(n) + "\"}}");

  // Sort by cycle (stable: simulation order breaks ties) so every track's
  // ts sequence is monotone in the file.
  std::stable_sort(buf_.begin(), buf_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.cycle < b.cycle;
                   });

  for (const TraceEvent& e : buf_) {
    const std::string name(net::to_string(e.msg));
    const std::string loc = where(pid_, e.node, e.cycle);
    const bool send = e.kind == EventKind::MsgSend;
    const std::string head =
        "{\"name\":\"" + name + "\",\"cat\":\"" + std::string(to_string(e.cat)) + "\",";
    std::string args = ",\"args\":{\"addr\":\"" + stats::hex(e.addr) + "\",\"" +
                       (send ? "to" : "from") + "\":" + u64(e.peer);
    if (e.payload != 0) args += ",\"pay\":" + u64(e.payload);
    args += "}}";
    if (e.dur == 0 && e.flow == 0) {
      // Controller-level handling: an instant marker on the node track.
      emit(head + "\"ph\":\"i\",\"s\":\"t\"," + loc + args);
      continue;
    }
    emit(head + "\"ph\":\"X\"," + loc + ",\"dur\":" + u64(e.dur > 0 ? e.dur : 1) + args);
    if (e.flow != 0)
      emit("{\"name\":\"" + name + "\",\"cat\":\"flow\",\"ph\":" +
           (send ? "\"s\"" : "\"f\",\"bp\":\"e\"") + ",\"id\":" + u64(e.flow) + "," +
           loc + "}");
  }

  // Interval samples as a counter track: one "C" record per interval, its
  // args graphed as stacked sub-series of the "traffic" counter.
  for (const Sample& s : samples_.samples) {
    emit("{\"name\":\"traffic\",\"ph\":\"C\",\"pid\":" + u64(pid_) +
         ",\"ts\":" + u64(s.begin) + ",\"args\":{\"misses\":" +
         u64(s.delta.misses.total()) + ",\"updates\":" +
         u64(s.delta.updates.total()) + ",\"messages\":" + u64(s.delta.net.messages) +
         ",\"flits\":" + u64(s.delta.net.flits) + "}}");
  }
  if (!samples_.samples.empty()) {
    // Close the last step so the final interval renders with its width.
    emit("{\"name\":\"traffic\",\"ph\":\"C\",\"pid\":" + u64(pid_) +
         ",\"ts\":" + u64(samples_.samples.back().end) +
         ",\"args\":{\"misses\":0,\"updates\":0,\"messages\":0,\"flits\":0}}");
  }

  // The cycle-accounting breakdown as one counter record per processor on
  // its node track: the args stack the run's per-category totals.
  for (NodeId p = 0; p < profile_.per_proc.size(); ++p) {
    std::string rec = "{\"name\":\"cycle_breakdown\",\"ph\":\"C\",\"pid\":" +
                      u64(pid_) + ",\"tid\":" + u64(p) + ",\"ts\":0,\"args\":{";
    bool first = true;
    for (std::size_t c = 0; c < kCycleCats; ++c) {
      if (profile_.per_proc[p][c] == 0) continue;
      if (!first) rec += ',';
      first = false;
      rec += '"';
      rec += to_string(static_cast<CycleCat>(c));
      rec += "\":" + u64(profile_.per_proc[p][c]);
    }
    rec += "}}";
    emit(rec);
  }

  // The sharing taxonomy as one counter track per observed pattern: how
  // many of the run's touched blocks each pattern covers.
  for (std::size_t i = 0; i < kSharingPatterns; ++i) {
    if (sharing_.pattern_blocks[i] == 0) continue;
    emit("{\"name\":\"sharing/" +
         std::string(to_string(static_cast<SharingPattern>(i))) +
         "\",\"ph\":\"C\",\"pid\":" + u64(pid_) + ",\"ts\":0,\"args\":{\"blocks\":" +
         u64(sharing_.pattern_blocks[i]) + "}}");
  }

  buf_.clear();
  samples_ = {};
  profile_ = {};
  sharing_ = {};
}

void PerfettoSink::finish() {
  if (finished_) return;
  finished_ = true;
  flush_run();
  os_ << "\n]}\n";
  os_.flush();
}

} // namespace ccsim::obs
