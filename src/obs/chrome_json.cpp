#include "obs/chrome_json.hpp"

#include <charconv>
#include <cstring>
#include <ostream>

namespace greenhpc::obs::detail {

namespace {
constexpr std::size_t kBufferBytes = 64 * 1024;
/// Longest text put_int/put_micros/put_value format in one piece.
constexpr std::size_t kNumberChars = 32;
}  // namespace

char* format_micros(char* out, std::uint64_t ns) {
  // At most 20 integer digits (UINT64_MAX has 20), '.', 3 digits.
  char* p = std::to_chars(out, out + 20, ns / 1000).ptr;
  std::uint64_t frac = ns % 1000;
  if (frac != 0) {
    *p++ = '.';
    int digits = 3;
    while (frac % 10 == 0) {
      frac /= 10;
      --digits;
    }
    for (int i = digits - 1; i >= 0; --i) {
      p[i] = static_cast<char>('0' + frac % 10);
      frac /= 10;
    }
    p += digits;
  }
  return p;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os)
    : os_(os), buf_(kBufferBytes) {
  put("{\"traceEvents\":[");
}

void ChromeTraceWriter::flush() {
  os_.write(buf_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void ChromeTraceWriter::put(std::string_view s) {
  if (s.size() > buf_.size() - used_) {
    flush();
    if (s.size() > buf_.size()) {
      os_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
  }
  std::memcpy(buf_.data() + used_, s.data(), s.size());
  used_ += s.size();
}

void ChromeTraceWriter::put(char c) {
  if (used_ == buf_.size()) flush();
  buf_[used_++] = c;
}

void ChromeTraceWriter::put_int(long long v) {
  char tmp[kNumberChars];
  put(std::string_view(tmp, static_cast<std::size_t>(
                                std::to_chars(tmp, tmp + sizeof(tmp), v).ptr - tmp)));
}

void ChromeTraceWriter::put_micros(std::uint64_t ns) {
  char tmp[kNumberChars];
  put(std::string_view(tmp, static_cast<std::size_t>(format_micros(tmp, ns) - tmp)));
}

void ChromeTraceWriter::put_value(double v) {
  // %g at six significant digits: what an ostream prints by default.
  char tmp[kNumberChars];
  const char* end =
      std::to_chars(tmp, tmp + sizeof(tmp), v, std::chars_format::general, 6).ptr;
  put(std::string_view(tmp, static_cast<std::size_t>(end - tmp)));
}

void ChromeTraceWriter::put_escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      put('\\');
      put(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      put("\\u00");
      put(kHex[(c >> 4) & 0xf]);
      put(kHex[c & 0xf]);
    } else {
      put(c);
    }
  }
}

void ChromeTraceWriter::separate() {
  if (!first_) put(',');
  first_ = false;
}

void ChromeTraceWriter::process_name(long pid, std::string_view label) {
  separate();
  put("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
  put_int(pid);
  put(",\"tid\":0,\"args\":{\"name\":\"");
  put_escaped(label);
  put("\"}}");
}

void ChromeTraceWriter::event(std::string_view name, std::string_view cat, char phase,
                              long pid, int tid, std::uint64_t ts_ns,
                              std::uint64_t dur_ns, double value) {
  separate();
  put("{\"name\":\"");
  put_escaped(name);
  put("\",\"cat\":\"");
  put_escaped(cat);
  put("\",\"ph\":\"");
  put(phase);
  put("\",\"pid\":");
  put_int(pid);
  put(",\"tid\":");
  put_int(tid);
  put(",\"ts\":");
  put_micros(ts_ns);
  if (phase == 'X') {
    put(",\"dur\":");
    put_micros(dur_ns);
  } else if (phase == 'i') {
    put(",\"s\":\"t\",\"args\":{\"value\":");
    put_value(value);
    put('}');
  } else if (phase == 'C') {
    put(",\"args\":{\"value\":");
    put_value(value);
    put('}');
  }
  put('}');
}

void ChromeTraceWriter::finish() {
  put("],\"displayTimeUnit\":\"ms\"}\n");
  flush();
}

}  // namespace greenhpc::obs::detail
