#pragma once
// Chrome trace_event JSON writer shared by Tracer and FleetTrace.
//
// Both writers emit the same event shape; this is the one place that
// knows it. Timestamps are integer nanoseconds printed as exact decimal
// microseconds (1234567891 ns -> "1234567.891"), so an event hours into
// a run keeps its nanosecond: a double printed at the stream's default
// six significant digits fell to a 10 µs grid past one second. Text is
// formatted with std::to_chars into a fixed 64 KiB buffer that is
// flushed to the stream whenever it fills, so writing a trace of any
// size holds at most one buffer besides the events themselves.
//
// Internal to the obs library (Tracer::write_chrome_json and
// FleetTrace::write_chrome_json are the public entry points).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace greenhpc::obs::detail {

/// Write `ns` as exact decimal microseconds into `out` (at least 24
/// chars): the integer part, then up to three sub-µs digits with
/// trailing zeros dropped (1500 -> "1.5", 2000 -> "2"). Returns the end.
char* format_micros(char* out, std::uint64_t ns);

class ChromeTraceWriter {
 public:
  /// Starts the document on `os`; call finish() to complete it.
  explicit ChromeTraceWriter(std::ostream& os);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// A process_name metadata record labelling lane `pid`.
  void process_name(long pid, std::string_view label);
  /// One event: ts (and dur for an 'X' span) in µs, an 'i' instant or
  /// 'C' counter carries `value` in its args.
  void event(std::string_view name, std::string_view cat, char phase, long pid,
             int tid, std::uint64_t ts_ns, std::uint64_t dur_ns, double value);
  /// Close the document and flush every buffered byte to the stream; the
  /// caller checks the stream's state for write errors.
  void finish();

 private:
  void put(std::string_view s);
  void put(char c);
  void put_int(long long v);
  void put_micros(std::uint64_t ns);
  void put_value(double v);
  void put_escaped(std::string_view s);
  void separate();
  void flush();

  std::ostream& os_;
  std::vector<char> buf_;
  std::size_t used_ = 0;
  bool first_ = true;
};

}  // namespace greenhpc::obs::detail
