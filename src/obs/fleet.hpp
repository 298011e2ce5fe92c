#pragma once
// Fleet trace merge: one Chrome trace with a process lane per worker.
//
// The per-process Tracer (obs/trace.hpp) stops at the fork boundary: a
// distributed sweep's workers each buffer their own events with their
// own steady-clock epoch, invisible to the coordinator. FleetTrace is
// the merge point. The coordinator opens one lane per process (itself
// plus every worker), anchors each worker's clock once — the first
// timestamped obs line a worker ships after `hello` pairs a remote
// "now" with a local "now", and the constant offset between them maps
// every later event — and appends shipped event batches in arrival
// order. Because the offset per lane is a single constant fixed at
// alignment, a worker's event order (and thus per-(pid,tid) timestamp
// monotonicity) survives the mapping; the property test in
// tests/obs/test_fleet.cpp holds that line.
//
// The output is standard Chrome trace_event JSON: each lane becomes a
// `pid` with a `process_name` metadata record (real OS pids, so the
// viewer lines up with `ps` output from the run), worker threads keep
// their remote tids, and the coordinator's control-plane events
// interleave on their own lane. Loadable in chrome://tracing or
// https://ui.perfetto.dev next to any single-process trace.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace greenhpc::obs {

/// A trace event that crossed (or may cross) a process boundary: same
/// shape as TraceEvent but with OWNED strings — the tracer's
/// static-pointer contract cannot survive the wire.
struct RemoteTraceEvent {
  std::string name;
  std::string cat;
  int tid = 0;
  char phase = 'X';  ///< 'X' complete span, 'i' instant, 'C' counter
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  double value = 0.0;
};

class FleetTrace {
 public:
  /// Open a lane. `pid` is the OS pid shown in the viewer; `label`
  /// becomes the lane's process_name metadata. Returns the lane handle.
  int add_lane(long pid, std::string label);

  /// Anchor `lane`'s clock: `remote_now_ns` was sampled by the remote
  /// process at (one pipe latency before) the moment `local_now_ns` was
  /// sampled here. The first call fixes the lane's constant offset;
  /// later calls are ignored so per-lane event order is preserved.
  void align(int lane, std::uint64_t remote_now_ns, std::uint64_t local_now_ns);
  /// Kept for `FleetTrace.FirstAlignWinsAndMapsWithConstantOffset`.
  [[nodiscard]] bool aligned(int lane) const;
  /// Mapped local-clock value of a remote timestamp (0 offset before
  /// align). Clamped at 0 — the clamp is monotone, so ordering holds.
  [[nodiscard]] std::uint64_t map_ns(int lane, std::uint64_t remote_ts_ns) const;

  /// Append a batch of remote events to `lane`, mapping timestamps
  /// through the lane's offset. Events recorded with 0 offset (a local
  /// lane, e.g. the coordinator's own control plane) pass unchanged.
  /// Takes the batch by value: pass an rvalue to move the events in.
  void add_events(int lane, std::vector<RemoteTraceEvent> events);
  /// Convenience for the coordinator's own lane: one event, local clock.
  void add_event(int lane, RemoteTraceEvent event);
  /// Accumulate the remote side's ring-drop report for `lane`.
  void add_dropped(int lane, std::uint64_t dropped);

  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  /// Lane readers, kept for `FleetTrace.AddEventsMapsTimestampsThroughLaneOffset`.
  [[nodiscard]] std::size_t event_count(int lane) const;
  [[nodiscard]] const std::vector<RemoteTraceEvent>& events(int lane) const;
  [[nodiscard]] std::uint64_t dropped(int lane) const;

  /// Chrome trace_event JSON: process_name metadata per lane, then every
  /// event under its lane's pid (ts/dur in exact µs, matching Tracer
  /// output; see obs/chrome_json.hpp).
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Lane {
    long pid = 0;
    std::string label;
    bool aligned = false;
    std::int64_t offset_ns = 0;  ///< local = remote + offset
    std::uint64_t dropped = 0;
    std::vector<RemoteTraceEvent> events;
  };
  std::vector<Lane> lanes_;
};

}  // namespace greenhpc::obs
