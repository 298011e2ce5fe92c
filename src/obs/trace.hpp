#pragma once
// Structured event tracer for the engine's own runtime (not the simulated
// machine — that is telemetry::SensorStore's job).
//
// The paper's section 3.4 argues carbon claims stay auditable only when
// the operational stack can introspect itself; the same holds for this
// reproduction's engine. The tracer records scoped begin/end spans and
// instant events into per-thread ring buffers and drains them to Chrome
// trace_event JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Cost model:
//   - tracing disabled (the default): a span is one relaxed atomic load
//     and a predictable branch — cheap enough for per-tick simulator
//     phases and per-chunk pool dispatch. The instant macro is the same
//     load behind a branch.
//   - tracing enabled: two steady_clock reads plus one ring-slot write
//     per span, all thread-local; no locks, no allocation on the hot
//     path (buffers are allocated once per thread at registration).
//   - compiled out entirely when GREENHPC_OBS_DISABLED is defined: the
//     macros expand to nothing.
//
// Event names and categories must be string literals (or otherwise have
// static storage duration): the ring stores the pointers, not copies.
//
// Drain contract: snapshot()/write_chrome_json()/aggregate_spans()/reset()
// must run while instrumented work is quiescent (no thread currently
// recording). Completion of a ThreadPool task or a std::thread::join
// establishes the needed happens-before edge; idle pool workers are fine.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace greenhpc::obs {

namespace detail {
extern std::atomic<bool> trace_enabled;
}  // namespace detail

/// One recorded event. `dur_ns` is nonzero only for complete spans.
struct TraceEvent {
  const char* name = nullptr;  ///< static string, not owned
  const char* cat = nullptr;   ///< static string, not owned
  std::uint64_t ts_ns = 0;     ///< steady-clock ns since the tracer epoch
  std::uint64_t dur_ns = 0;
  char phase = 'X';  ///< 'X' complete span, 'i' instant
  double value = 0.0;  ///< instant payload (ignored for spans)
};

/// Drained events of one thread, oldest first.
struct ThreadTrace {
  int tid = 0;               ///< small sequential id (registration order)
  std::uint64_t dropped = 0; ///< events overwritten by the ring
  std::vector<TraceEvent> events;
};

/// Aggregate over every complete span with one name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
};

class Tracer {
 public:
  /// Hot-path gate: relaxed load, no fence.
  [[nodiscard]] static bool enabled() {
    return detail::trace_enabled.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on);

  /// Ring capacity (events per thread) for buffers registered after the
  /// call; existing buffers keep their size. Default 65536.
  static void set_buffer_capacity(std::size_t events);

  /// Nanoseconds since the tracer epoch (first call in the process).
  [[nodiscard]] static std::uint64_t now_ns();

  // Raw recording entry points. They do NOT re-check enabled(): a span
  // opened while tracing was on is recorded even if tracing was switched
  // off mid-span. Use the macros below for gated call sites.
  static void record_complete(const char* name, const char* cat,
                              std::uint64_t begin_ns, std::uint64_t end_ns);
  static void record_instant(const char* name, const char* cat, double value = 0.0);

  /// Copy out every thread's buffered events (see drain contract above).
  [[nodiscard]] static std::vector<ThreadTrace> snapshot();
  /// Per-name totals over all buffered complete spans, sorted by name.
  [[nodiscard]] static std::vector<SpanStat> aggregate_spans();
  /// Chrome trace_event JSON ("traceEvents" array; ts/dur in µs).
  static void write_chrome_json(std::ostream& os);
  /// Drop all buffered events (thread registrations are kept).
  static void reset();
  /// Total events overwritten across all rings since the last reset.
  [[nodiscard]] static std::uint64_t dropped();
};

/// RAII span: samples the clock only when tracing was enabled at entry.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "greenhpc") {
    if (Tracer::enabled()) {
      name_ = name;
      cat_ = cat;
      begin_ = Tracer::now_ns();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) Tracer::record_complete(name_, cat_, begin_, Tracer::now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t begin_ = 0;
};

}  // namespace greenhpc::obs

#define GREENHPC_OBS_CONCAT2(a, b) a##b
#define GREENHPC_OBS_CONCAT(a, b) GREENHPC_OBS_CONCAT2(a, b)

#if defined(GREENHPC_OBS_DISABLED)
#define GREENHPC_TRACE_SPAN(name) static_cast<void>(0)
#define GREENHPC_TRACE_INSTANT(name, value) \
  do {                                      \
  } while (false)
#else
/// Scoped span covering the rest of the enclosing block.
#define GREENHPC_TRACE_SPAN(name) \
  ::greenhpc::obs::ScopedSpan GREENHPC_OBS_CONCAT(greenhpc_span_, __LINE__)(name)
/// Instant event with a numeric payload, recorded only while enabled.
#define GREENHPC_TRACE_INSTANT(name, value)                                  \
  do {                                                                       \
    if (::greenhpc::obs::Tracer::enabled())                                  \
      ::greenhpc::obs::Tracer::record_instant((name), "greenhpc", (value));  \
  } while (false)
#endif
