#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

namespace greenhpc::obs {
namespace {

/// Every tracer test drains and re-arms the shared rings; run them with
/// tracing off at entry and restore that state at exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(false);
    Tracer::reset();
  }
  void TearDown() override {
    Tracer::set_enabled(false);
    Tracer::reset();
  }
};

std::size_t total_events(const std::vector<ThreadTrace>& traces) {
  std::size_t n = 0;
  for (const auto& t : traces) n += t.events.size();
  return n;
}

TEST_F(TraceTest, DisabledSpanRecordsNothing) {
  {
    GREENHPC_TRACE_SPAN("obs.test.disabled");
  }
  GREENHPC_TRACE_INSTANT("obs.test.disabled_instant", 1.0);
  EXPECT_EQ(total_events(Tracer::snapshot()), 0u);
}

TEST_F(TraceTest, EnabledSpanIsRecordedWithDuration) {
  Tracer::set_enabled(true);
  {
    GREENHPC_TRACE_SPAN("obs.test.span");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Tracer::set_enabled(false);
  const auto traces = Tracer::snapshot();
  ASSERT_EQ(total_events(traces), 1u);
  const TraceEvent& e = traces.front().events.front();
  EXPECT_STREQ(e.name, "obs.test.span");
  EXPECT_EQ(e.phase, 'X');
  EXPECT_GE(e.dur_ns, 500'000u);  // slept ~1ms; be lenient about coarse clocks
}

TEST_F(TraceTest, InstantEventsCarryValues) {
  Tracer::set_enabled(true);
  GREENHPC_TRACE_INSTANT("obs.test.instant", 7.0);
  Tracer::set_enabled(false);
  const auto traces = Tracer::snapshot();
  ASSERT_EQ(total_events(traces), 1u);
  const TraceEvent& e = traces.front().events.front();
  EXPECT_STREQ(e.name, "obs.test.instant");
  EXPECT_EQ(e.phase, 'i');
  EXPECT_DOUBLE_EQ(e.value, 7.0);
}

TEST_F(TraceTest, SpansFromManyThreadsDrainWithMonotoneTimestamps) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  Tracer::set_enabled(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        GREENHPC_TRACE_SPAN("obs.test.mt");
      }
    });
  }
  for (auto& th : threads) th.join();  // join = happens-before for the drain
  Tracer::set_enabled(false);

  const auto traces = Tracer::snapshot();
  std::size_t mt_spans = 0;
  for (const auto& tt : traces) {
    std::uint64_t prev_ts = 0;
    for (const auto& e : tt.events) {
      ASSERT_EQ(e.phase, 'X');
      ASSERT_STREQ(e.name, "obs.test.mt");
      // Spans close (and are recorded) in order on each thread, so the
      // per-thread begin timestamps must be monotone non-decreasing.
      EXPECT_GE(e.ts_ns, prev_ts);
      prev_ts = e.ts_ns;
      ++mt_spans;
    }
  }
  EXPECT_EQ(mt_spans, static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(Tracer::dropped(), 0u);

  // The drained set must serialize to structurally valid trace JSON.
  std::ostringstream os;
  Tracer::write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, AggregateSpansSumsPerName) {
  Tracer::set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    GREENHPC_TRACE_SPAN("obs.test.agg_a");
  }
  {
    GREENHPC_TRACE_SPAN("obs.test.agg_b");
  }
  Tracer::set_enabled(false);
  const auto stats = Tracer::aggregate_spans();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (const auto& s : stats) {
    if (s.name == "obs.test.agg_a") a = s.count;
    if (s.name == "obs.test.agg_b") b = s.count;
    EXPECT_GE(s.total_ms, 0.0);
  }
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 1u);
}

TEST_F(TraceTest, ResetDropsBufferedEvents) {
  Tracer::set_enabled(true);
  {
    GREENHPC_TRACE_SPAN("obs.test.reset");
  }
  Tracer::set_enabled(false);
  ASSERT_GE(total_events(Tracer::snapshot()), 1u);
  Tracer::reset();
  EXPECT_EQ(total_events(Tracer::snapshot()), 0u);
}

TEST_F(TraceTest, ChromeJsonEscapesAndTimesInMicroseconds) {
  Tracer::set_enabled(true);
  const std::uint64_t begin = Tracer::now_ns();
  Tracer::record_complete("quoted\"name", "greenhpc", begin, begin + 1500);
  Tracer::set_enabled(false);
  std::ostringstream os;
  Tracer::write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("quoted\\\"name"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos);  // 1500 ns = 1.5 µs
}

// Enabled-overhead sanity guard: an enabled span costs two clock reads
// plus a thread-local ring write. The hard bound is deliberately loose
// (sanitizer builds and shared CI runners are slow); the real measurement
// lives in bench_microbench.
TEST_F(TraceTest, EnabledSpanOverheadIsBounded) {
  constexpr int kIters = 20000;
  Tracer::set_buffer_capacity(1u << 16);
  Tracer::set_enabled(true);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    GREENHPC_TRACE_SPAN("obs.test.overhead");
  }
  const auto t1 = std::chrono::steady_clock::now();
  Tracer::set_enabled(false);
  const double ns_per_span =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  EXPECT_LT(ns_per_span, 20000.0) << "enabled span cost exploded";
}

}  // namespace
}  // namespace greenhpc::obs
