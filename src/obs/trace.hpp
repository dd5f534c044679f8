// Structured event tracing: TraceEvent records dispatched to pluggable sinks.
//
// Every controller logs its message receptions through a TraceLog when one
// is attached (MachineConfig::trace, a trace sink, or the invariant
// checker). Events are structured records (cycle, node, category, message
// type, address, small payload) and stay records until text leaves the
// program: format_event renders one as a line only where it is printed.
//
//   - the built-in ring of the last TraceLog::kRing records, formatted on
//     demand for the deadlock reports of Machine::run;
//   - TextSink     -- formatted lines streamed to an ostream;
//   - JsonlSink    -- one JSON object per line, for scripts (obs/jsonl_sink.hpp);
//   - PerfettoSink -- Chrome trace_event JSON with per-node tracks and
//     message-lifetime flow arrows, loadable in chrome://tracing or
//     https://ui.perfetto.dev (obs/perfetto_sink.hpp).
//
// The network logs MsgSend/MsgRecv pairs joined by a flow id (one per
// injected message); controllers log their receptions as instant events on
// their node's track.
#pragma once

#include "net/message.hpp"
#include "sim/types.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::obs {

struct IntervalSeries;   // obs/sampler.hpp
struct ProfileSnapshot;  // obs/cycle_accounting.hpp
struct SharingReport;    // obs/sharing.hpp

/// Which layer logged an event.
enum class TraceCat : std::uint8_t {
  Cache,  ///< cache-controller message receptions
  Home,   ///< directory/home message receptions
  Net,    ///< network injections and deliveries (flow arrows)
};

[[nodiscard]] std::string_view to_string(TraceCat c) noexcept;

/// What a TraceEvent describes.
enum class EventKind : std::uint8_t {
  MsgSend,  ///< message injected into the network at `node`, bound for `peer`
  MsgRecv,  ///< message delivered to / handled by `node`, sent by `peer`
};

/// One structured trace record. `cycle` is when the event starts; `dur` is
/// its extent (port occupancy for network events, 0 for instants). `flow`
/// joins a MsgSend to its MsgRecv (0 = not part of a flow).
struct TraceEvent {
  Cycle cycle = 0;
  Cycle dur = 0;
  TraceCat cat = TraceCat::Net;
  EventKind kind = EventKind::MsgRecv;
  NodeId node = kInvalidNode;
  NodeId peer = kInvalidNode;
  net::MsgType msg{};
  Addr addr = 0;
  std::uint64_t payload = 0;
  std::uint64_t flow = 0;
};

/// Convenience: the structured record for a controller handling `msg`.
[[nodiscard]] inline TraceEvent recv_event(TraceCat cat, Cycle now, NodeId node,
                                           const net::Message& msg) {
  TraceEvent e;
  e.cycle = now;
  e.cat = cat;
  e.kind = EventKind::MsgRecv;
  e.node = node;
  e.peer = msg.src;
  e.msg = msg.type;
  e.addr = msg.addr;
  e.payload = msg.payload;
  return e;
}

/// One line of human-readable text for an event ("t=42 [cache] cache3 <-
/// GetS addr=0x10000000 from 1"), the text-sink / report rendering.
[[nodiscard]] std::string format_event(const TraceEvent& e);

/// The last N events pushed, kept as records in a fixed ring.
template <std::size_t N>
class EventRing {
public:
  void push(const TraceEvent& e) noexcept { slots_[pushed_++ % N] = e; }
  [[nodiscard]] bool empty() const noexcept { return pushed_ == 0; }

  /// Calls `f` on each of the last `n` events still held, oldest first.
  template <class F>
  void for_last(std::size_t n, F&& f) const {
    const std::uint64_t held = std::min<std::uint64_t>(pushed_, N);
    for (std::uint64_t i = pushed_ - std::min<std::uint64_t>(n, held); i < pushed_; ++i)
      f(slots_[i % N]);
  }

private:
  std::array<TraceEvent, N> slots_{};
  std::uint64_t pushed_ = 0;
};

/// Where structured events go. Sinks are registered on a TraceLog and
/// receive every event in simulation order. File-writing sinks group
/// events into runs: begin_run() starts a new labeled section (a new
/// Perfetto process, a JSONL run marker, a text header) and finish() flushes
/// trailers; both are optional for sinks that need neither.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void begin_run(const std::string& label) { (void)label; }
  virtual void on_event(const TraceEvent& e) = 0;
  virtual void finish() {}

  // Optional run-scoped attachments, delivered after the run completes and
  // before the next begin_run()/finish(). Sinks that can render counter
  // tracks (Perfetto) override; everyone else ignores them.

  /// The run's interval-sampled counter deltas.
  virtual void on_samples(const IntervalSeries& s) { (void)s; }
  /// The run's cycle-accounting snapshot.
  virtual void on_profile(const ProfileSnapshot& p) { (void)p; }
  /// The run's sharing-pattern report.
  virtual void on_sharing(const SharingReport& r) { (void)r; }
};

/// Formatted text lines streamed to an ostream (--trace-format ring).
class TextSink : public TraceSink {
public:
  explicit TextSink(std::ostream& os) : os_(os) {}
  void begin_run(const std::string& label) override;
  void on_event(const TraceEvent& e) override;

private:
  std::ostream& os_;
};

/// Collects structured events: keeps the last kRing as records and fans
/// every event out to the registered sinks.
class TraceLog {
public:
  /// Events kept for deadlock reports.
  static constexpr std::size_t kRing = 512;

  /// Register an additional sink (not owned; must outlive the log).
  void add_sink(TraceSink* s) { if (s) sinks_.push_back(s); }

  /// Record one structured event and dispatch it to every sink.
  void event(const TraceEvent& e);

  /// Fresh id joining one message's MsgSend to its MsgRecv.
  [[nodiscard]] std::uint64_t next_flow_id() noexcept { return ++flow_seq_; }

  /// The last `n` kept events formatted one per line (deadlock reports).
  [[nodiscard]] std::string tail(std::size_t n) const;

private:
  EventRing<kRing> ring_;
  std::uint64_t flow_seq_ = 0;
  std::vector<TraceSink*> sinks_;
};

/// Trace output renderings selectable on bench command lines.
enum class TraceFormat : std::uint8_t { Ring, Jsonl, Perfetto };

} // namespace ccsim::obs
