#pragma once
// Flight recorder: a fixed-size ring of recent structured events, dumped
// as a postmortem artifact when something dies.
//
// The distributed sweep keeps one recorder per worker connection and one
// for the coordinator itself; every protocol/ledger event (spawn, hello,
// assign, block receipt, heartbeat miss, reassignment, rejected obs
// line, death) is appended as it happens. The ring is deliberately
// small: when a worker is `kill -9`ed or a line arrives mangled, the
// LAST few hundred events — the final protocol exchange — are what make
// the failure debuggable, and a bounded ring means recording can stay on
// even on week-long sweeps. write_jsonl emits one JSON object per line
// (oldest surviving event first, with its global sequence number), the
// shape the CI kill jobs validate and upload. The chaos harness reuses
// the same ring + JSONL shape for its per-schedule verdict lane
// (`chaos-events.jsonl`), so one validator reads both artifacts.
//
// Not thread-safe: each recorder is owned by the single thread that runs
// the coordinator event loop (matching the rest of the coordinator's
// state).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace greenhpc::obs {

/// One recorded event. `t_s` is whatever clock the owner runs on — the
/// sweep coordinator records util::MonotoneClock seconds since its start.
struct FlightEvent {
  double t_s = 0.0;
  std::string kind;    ///< short machine tag, e.g. "assign", "hb_miss"
  std::string detail;  ///< free text; may embed (a prefix of) a wire line
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256);

  void record(double t_s, std::string kind, std::string detail = "");

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Events ever recorded.
  [[nodiscard]] std::uint64_t total() const { return head_; }
  /// Events overwritten by the ring (total - size).
  /// Kept for `FlightRecorder.RingWrapKeepsTheLastCapacityEvents`.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Surviving events, oldest first.
  /// Kept for `FlightRecorder.RingWrapKeepsTheLastCapacityEvents`.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// One JSON object per line, oldest surviving event first:
  ///   {"seq":17,"t_s":3.25,"kind":"assign","detail":"start=512 count=256"}
  /// `seq` is the global sequence number, so a dump whose first seq is
  /// nonzero says exactly how much history the ring shed.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t head_ = 0;  ///< next write position == total recorded
};

}  // namespace greenhpc::obs
