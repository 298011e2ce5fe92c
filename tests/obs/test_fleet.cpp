#include "obs/fleet.hpp"
#include "obs/chrome_json.hpp"
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace greenhpc::obs {
namespace {

RemoteTraceEvent ev(std::string name, std::uint64_t ts_ns,
                    std::uint64_t dur_ns = 0, int tid = 0) {
  RemoteTraceEvent e;
  e.name = std::move(name);
  e.cat = "fleet";
  e.tid = tid;
  e.phase = dur_ns == 0 ? 'i' : 'X';
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  return e;
}

TEST(FleetTrace, LanesAreIndependentAndOrdered) {
  FleetTrace ft;
  const int coord = ft.add_lane(100, "coordinator");
  const int w0 = ft.add_lane(200, "worker 0");
  EXPECT_EQ(coord, 0);
  EXPECT_EQ(w0, 1);
  EXPECT_EQ(ft.lane_count(), 2u);
  ft.add_event(coord, ev("coord.spawn", 10));
  ft.add_events(w0, {ev("worker.block", 5, 3)});
  EXPECT_EQ(ft.event_count(coord), 1u);
  EXPECT_EQ(ft.event_count(w0), 1u);
  EXPECT_EQ(ft.events(coord).front().name, "coord.spawn");
  EXPECT_EQ(ft.events(w0).front().name, "worker.block");
}

TEST(FleetTrace, FirstAlignWinsAndMapsWithConstantOffset) {
  FleetTrace ft;
  const int lane = ft.add_lane(42, "worker");
  EXPECT_FALSE(ft.aligned(lane));
  // Before alignment the mapping is the identity (offset 0).
  EXPECT_EQ(ft.map_ns(lane, 1234u), 1234u);
  // Worker clock reads 1000 when coordinator clock reads 5000: offset +4000.
  ft.align(lane, 1000, 5000);
  EXPECT_TRUE(ft.aligned(lane));
  EXPECT_EQ(ft.map_ns(lane, 1000u), 5000u);
  EXPECT_EQ(ft.map_ns(lane, 1500u), 5500u);
  // A second anchor must not re-skew already-mapped history.
  ft.align(lane, 0, 999999);
  EXPECT_EQ(ft.map_ns(lane, 1000u), 5000u);
}

TEST(FleetTrace, NegativeOffsetClampsAtZero) {
  FleetTrace ft;
  const int lane = ft.add_lane(7, "worker");
  // Worker clock ahead of coordinator clock: offset -9000.
  ft.align(lane, 10000, 1000);
  EXPECT_EQ(ft.map_ns(lane, 10000u), 1000u);
  // A remote timestamp from before the coordinator epoch clamps to 0
  // rather than wrapping around std::uint64_t.
  EXPECT_EQ(ft.map_ns(lane, 100u), 0u);
}

TEST(FleetTrace, AddEventsMapsTimestampsThroughLaneOffset) {
  FleetTrace ft;
  const int lane = ft.add_lane(9, "worker");
  ft.align(lane, 100, 600);
  ft.add_events(lane, {ev("a", 100), ev("b", 250, 50)});
  ASSERT_EQ(ft.event_count(lane), 2u);
  EXPECT_EQ(ft.events(lane)[0].ts_ns, 600u);
  EXPECT_EQ(ft.events(lane)[1].ts_ns, 750u);
  EXPECT_EQ(ft.events(lane)[1].dur_ns, 50u);
  ft.add_dropped(lane, 3);
  ft.add_dropped(lane, 4);
  EXPECT_EQ(ft.dropped(lane), 7u);
}

// Property: the per-lane mapping is a single constant offset fixed at
// alignment (with a monotone clamp at 0), so any non-decreasing remote
// timestamp sequence stays non-decreasing after the merge — per-lane
// event order in the fleet trace matches the order each worker saw.
TEST(FleetTrace, MappedTimestampsStayMonotonePerLane) {
  std::mt19937 rng(20260808u);
  std::uniform_int_distribution<std::uint64_t> local_dist(0, 1u << 30);
  std::uniform_int_distribution<std::uint64_t> remote_dist(0, 1u << 30);
  std::uniform_int_distribution<std::uint64_t> step(0, 1u << 20);
  for (int trial = 0; trial < 50; ++trial) {
    FleetTrace ft;
    const int lane = ft.add_lane(1000 + trial, "worker");
    ft.align(lane, remote_dist(rng), local_dist(rng));
    std::uint64_t ts = remote_dist(rng);
    std::vector<RemoteTraceEvent> batch;
    for (int i = 0; i < 64; ++i) {
      ts += step(rng);
      batch.push_back(ev("e", ts));
    }
    ft.add_events(lane, batch);
    const std::vector<RemoteTraceEvent>& merged = ft.events(lane);
    ASSERT_EQ(merged.size(), batch.size());
    for (std::size_t i = 1; i < merged.size(); ++i) {
      ASSERT_GE(merged[i].ts_ns, merged[i - 1].ts_ns)
          << "trial " << trial << " event " << i;
    }
  }
}

TEST(FleetTrace, ChromeJsonNamesEveryLaneEvenWhenEmpty) {
  FleetTrace ft;
  const int coord = ft.add_lane(11, "greenhpc sweep coordinator");
  ft.add_lane(22, "sweep worker 0");  // never receives an event
  ft.add_event(coord, ev("coord.run", 1000, 2000));
  std::ostringstream os;
  ft.write_chrome_json(os);
  const std::string json = os.str();
  // One process_name metadata record per lane, present even for the
  // empty lane so the viewer shows the dead worker's row.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("greenhpc sweep coordinator"), std::string::npos);
  EXPECT_NE(json.find("sweep worker 0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":11"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":22"), std::string::npos);
  // ts/dur are microseconds in Chrome trace JSON: 1000ns -> 1us.
  EXPECT_NE(json.find("\"name\":\"coord.run\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

std::string micros(std::uint64_t ns) {
  char buf[24];
  return std::string(buf, detail::format_micros(buf, ns));
}

TEST(ChromeJson, MicrosecondsAreExactDecimalsOfTheNanoseconds) {
  EXPECT_EQ(micros(0), "0");
  EXPECT_EQ(micros(1), "0.001");
  EXPECT_EQ(micros(10), "0.01");
  EXPECT_EQ(micros(1000), "1");
  EXPECT_EQ(micros(1500), "1.5");
  EXPECT_EQ(micros(1234567891), "1234567.891");
  EXPECT_EQ(micros(UINT64_MAX), "18446744073709551.615");
}

/// Nanoseconds of the first `"key":<µs>` in `json`, read back from its
/// decimal text without floating point.
std::uint64_t field_ns(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  std::size_t i = at + key.size() + 3;
  std::uint64_t ns = 0;
  while (std::isdigit(static_cast<unsigned char>(json[i])) != 0) {
    ns = ns * 10 + static_cast<std::uint64_t>(json[i++] - '0');
  }
  ns *= 1000;
  if (json[i] == '.') {
    std::uint64_t scale = 100;
    while (std::isdigit(static_cast<unsigned char>(json[++i])) != 0) {
      ns += static_cast<std::uint64_t>(json[i] - '0') * scale;
      scale /= 10;
    }
  }
  return ns;
}

TEST(FleetTrace, ChromeJsonKeepsTheNanosecondHoursIntoARun) {
  // Three hours after the epoch a double printed at six significant
  // digits rounds to 10 ms; the trace must keep the exact nanosecond.
  const std::uint64_t ts = 3ull * 3600 * 1000000000 + 123456789;
  FleetTrace ft;
  const int lane = ft.add_lane(5, "worker \"quoted\"\n");
  ft.add_event(lane, ev("tab\there\\", ts, 1001));
  std::ostringstream os;
  ft.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(field_ns(json, "ts"), ts);
  EXPECT_EQ(field_ns(json, "dur"), 1001u);
  EXPECT_NE(json.find("\"ts\":10800123456.789,"), std::string::npos);
  EXPECT_NE(json.find("worker \\\"quoted\\\"\\u000a"), std::string::npos);
  EXPECT_NE(json.find("tab\\u0009here\\\\"), std::string::npos);
}

TEST(FleetTrace, ChromeJsonLargerThanTheWriteBufferIsWhole) {
  // Far more than the writer's 64 KiB buffer: every event must arrive,
  // in order, and the document must close.
  FleetTrace ft;
  const int lane = ft.add_lane(3, "worker");
  constexpr std::uint64_t kEvents = 5000;
  std::vector<RemoteTraceEvent> batch;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    batch.push_back(ev("worker.block." + std::to_string(i), 1000 * i + 7, 3));
  }
  ft.add_events(lane, std::move(batch));
  std::ostringstream os;
  ft.write_chrome_json(os);
  const std::string json = os.str();
  ASSERT_GT(json.size(), 4 * 64 * 1024u);
  std::size_t found = 0;
  std::size_t at = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const std::string want = "\"worker.block." + std::to_string(i) + "\"";
    at = json.find(want, at);
    if (at == std::string::npos) break;
    ++found;
  }
  EXPECT_EQ(found, kEvents);
  const std::string end = "}],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(json.substr(json.size() - end.size()), end);
}

TEST(FlightRecorder, RecordsInOrderBelowCapacity) {
  FlightRecorder fr(8);
  EXPECT_EQ(fr.capacity(), 8u);
  EXPECT_EQ(fr.size(), 0u);
  fr.record(0.5, "spawn", "worker 0");
  fr.record(1.0, "hello", "pid=42");
  EXPECT_EQ(fr.size(), 2u);
  EXPECT_EQ(fr.total(), 2u);
  EXPECT_EQ(fr.dropped(), 0u);
  const std::vector<FlightEvent> evs = fr.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, "spawn");
  EXPECT_EQ(evs[1].kind, "hello");
  EXPECT_DOUBLE_EQ(evs[1].t_s, 1.0);
}

TEST(FlightRecorder, RingWrapKeepsTheLastCapacityEvents) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i) {
    fr.record(static_cast<double>(i), "k" + std::to_string(i));
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.total(), 10u);
  EXPECT_EQ(fr.dropped(), 6u);
  const std::vector<FlightEvent> evs = fr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest surviving first: events 6..9.
  EXPECT_EQ(evs.front().kind, "k6");
  EXPECT_EQ(evs.back().kind, "k9");
}

TEST(FlightRecorder, JsonlCarriesGlobalSequenceNumbers) {
  FlightRecorder fr(2);
  fr.record(0.25, "a", "first");
  fr.record(0.50, "b", "with \"quotes\" and \\slash");
  fr.record(0.75, "c", "last");
  std::ostringstream os;
  fr.write_jsonl(os);
  const std::string out = os.str();
  // Two surviving events (capacity 2), seq numbers 1 and 2 — the dump
  // says exactly how much history the ring shed.
  EXPECT_EQ(out.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(out.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(out.find("\"seq\":2"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"b\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"c\""), std::string::npos);
  // JSON string escaping survives round-tripping through detail text.
  EXPECT_NE(out.find("with \\\"quotes\\\" and \\\\slash"), std::string::npos);
  // One object per line, every line a complete object.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ(lines, 2u);
}

}  // namespace
}  // namespace greenhpc::obs
