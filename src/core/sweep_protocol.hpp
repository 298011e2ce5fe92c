#pragma once
// Coordinator/worker pipe protocol for distributed sweeps.
//
// One line per message, every line sealed with the same FNV trailer as
// the journal (` | <fnv16>`), so a byte mangled in transit is a parse
// failure, never a silently wrong assignment or result. The vocabulary
// is deliberately tiny — four control messages plus the journal's block
// record line reused verbatim as the result message:
//
//   worker -> coordinator:  hello <pid> <config16> <cases> <block>
//   worker -> coordinator:  hb <pid>
//   worker -> coordinator:  block <start> <count> <digest16> ...   (journal line)
//   worker -> coordinator:  stat <pid> <now16> ...    (registry snapshot)
//   worker -> coordinator:  trace <pid> <now16> ...   (trace event batch)
//   coordinator -> worker:  assign <start> <count>
//   coordinator -> worker:  shutdown
//
// `hello` doubles as the handshake AND the configuration cross-check:
// the worker derives (config digest, case count, block size) from its
// own command line, and the coordinator refuses a worker whose view of
// the grid differs — a version-skewed or mislaunched worker must fail
// loudly at connect, not contribute silently wrong blocks. `block`
// carries the BLOCK-LOCAL digest (fold from kSweepDigestBasis), since a
// worker cannot know its block's global fold position.
//
// `stat` and `trace` are the observability plane (sealed like every
// other line, digest-neutral by construction: the fold path never reads
// them). Both lead with the sender's pid and its monotone clock reading
// `now16` (obs::Tracer::now_ns as 16-hex), which is what lets the
// coordinator align per-worker clocks and measure shipping RTT. `stat`
// carries a full obs::StatSnapshot (counters/gauges/histograms, names
// hex-encoded into single tokens, doubles as exact bit patterns);
// `trace` carries the remote ring-drop count plus a batch of events.
//
// Malformed input never throws: a line that does not parse becomes
// MsgKind::Malformed and the receiver's policy decides (the coordinator
// treats a malformed worker line as worker death; the worker exits).
// The one carve-out is the observability plane: a line that LOOKS like
// a stat/trace line (verb prefix) but fails the seal or the grammar is
// MsgKind::ObsRejected — telemetry must never be able to kill the
// worker that ships it, so the coordinator drops and counts these
// (`sweep.obs_lines_rejected`) instead of declaring death.

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"

namespace greenhpc::core {

enum class MsgKind {
  Hello,
  Heartbeat,
  Assign,
  Shutdown,
  Block,
  Stat,
  Trace,
  ObsRejected,  ///< defective stat/trace line: drop and count, never fatal
  Malformed
};

/// A parsed protocol message; only the fields of its kind are valid.
struct Message {
  MsgKind kind = MsgKind::Malformed;
  // Hello / Heartbeat / Stat / Trace
  long pid = 0;
  std::uint64_t config_digest = 0;  ///< Hello
  std::size_t cases = 0;            ///< Hello
  std::size_t block_size = 0;       ///< Hello
  // Assign
  std::size_t start = 0;
  std::size_t count = 0;
  // Block
  SweepBlock block;
  // Stat / Trace: the sender's obs::Tracer::now_ns at send time.
  std::uint64_t remote_now_ns = 0;
  obs::StatSnapshot stats;                         ///< Stat
  std::uint64_t trace_dropped = 0;                 ///< Trace
  std::vector<obs::RemoteTraceEvent> trace_events; ///< Trace
};

[[nodiscard]] std::string encode_hello(long pid, std::uint64_t config_digest,
                                       std::size_t cases, std::size_t block_size);
[[nodiscard]] std::string encode_heartbeat(long pid);
[[nodiscard]] std::string encode_assign(std::size_t start, std::size_t count);
[[nodiscard]] std::string encode_shutdown();
/// Registry snapshot batch (metric names hex-encoded, values as bits).
[[nodiscard]] std::string encode_stat(long pid, std::uint64_t now_ns,
                                      const obs::StatSnapshot& snap);
/// Trace event batch plus the sender's ring-drop count.
[[nodiscard]] std::string encode_trace(
    long pid, std::uint64_t now_ns, std::uint64_t dropped,
    const std::vector<obs::RemoteTraceEvent>& events);

/// Parse one sealed line into a Message; any defect (bad checksum, bad
/// token, wrong arity) yields MsgKind::Malformed — except lines whose
/// verb prefix claims the observability plane ("stat "/"trace "), whose
/// defects yield MsgKind::ObsRejected instead (see header comment).
[[nodiscard]] Message parse_message(const std::string& line);

}  // namespace greenhpc::core
