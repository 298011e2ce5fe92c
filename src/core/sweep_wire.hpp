#pragma once
// Shared line codec for sweep persistence and transport.
//
// The sweep journal (crash-safe WAL) and the coordinator/worker pipe
// protocol speak the SAME line format for block records: ASCII tokens
// sealed with an FNV-1a trailer (` | <fnv16>`), metric doubles as exact
// 64-bit hex patterns, error text hex-encoded into one token. Sharing
// the codec is a correctness argument, not just deduplication — a block
// that round-trips the wire and a block that round-trips the journal are
// byte-identical, so "worker sent it" and "worker journaled it" can
// never disagree about the payload.
//
// Parsing works on std::string_view: a line is split into tokens once,
// without copying them, and every number is read with std::from_chars,
// which accepts exactly the digits the encoders write (no sign, no "0x",
// no leading space).
//
// Everything here is internal plumbing (namespace core::wire); public
// entry points live on SweepJournal and in sweep_protocol.hpp.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hpp"
#include "obs/run_report.hpp"  // obs::fnv1a

namespace greenhpc::core::wire {

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Parse all of `tok` as an unsigned number in `base`; false on an empty
/// token, a stray character or overflow (`out` is then untouched).
template <typename T>
inline bool parse_unsigned(std::string_view tok, T& out, int base) {
  const char* end = tok.data() + tok.size();
  T v = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v, base);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_hex64(std::string_view tok, std::uint64_t& out) {
  return tok.size() <= 16 && parse_unsigned(tok, out, 16);
}

inline bool parse_size(std::string_view tok, std::size_t& out) {
  return parse_unsigned(tok, out, 10);
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Error texts travel hex-encoded so they stay one whitespace-free token
/// regardless of content; "-" encodes the empty string.
inline std::string encode_text(const std::string& s) {
  if (s.empty()) return "-";
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() * 2);
  for (unsigned char c : s) {
    out += digits[c >> 4];
    out += digits[c & 0xf];
  }
  return out;
}

inline bool decode_text(std::string_view tok, std::string& out) {
  out.clear();
  if (tok == "-") return true;
  if (tok.size() % 2 != 0) return false;
  out.reserve(tok.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < tok.size(); i += 2) {
    const int hi = nibble(tok[i]);
    const int lo = nibble(tok[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>((hi << 4) | lo);
  }
  return true;
}

/// Append the ` | <fnv16>` trailer that lets the receiver reject torn
/// and bit-flipped lines. No trailing newline — the journal appends '\n'
/// itself; the pipe transport's LineWriter frames lines on its own.
inline std::string seal(const std::string& content) {
  return content + " | " + hex64(obs::fnv1a(content));
}

/// Split a sealed line into content and checksum; false on a malformed
/// or checksum-failing line. `content` views `line`.
inline bool unseal(std::string_view line, std::string_view& content) {
  const std::size_t sep = line.rfind(" | ");
  if (sep == std::string_view::npos) return false;
  content = line.substr(0, sep);
  std::uint64_t sum = 0;
  if (!parse_hex64(line.substr(sep + 3), sum)) return false;
  return sum == obs::fnv1a(content);
}

/// The whitespace-separated tokens of `content` (the C locale's space
/// characters), as views into it.
inline std::vector<std::string_view> tokens_of(std::string_view content) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> toks;
  std::size_t i = content.find_first_not_of(kSpace);
  while (i != std::string_view::npos) {
    const std::size_t end = content.find_first_of(kSpace, i);
    toks.push_back(content.substr(i, end == std::string_view::npos ? end : end - i));
    i = content.find_first_not_of(kSpace, end);
  }
  return toks;
}

/// Serialize a block record to a sealed line (no newline):
///   block <start> <count> <digest16> [c <m1>..<m7> | f <attempts> <hexmsg>]...
inline std::string serialize_block(const SweepBlock& rec) {
  std::string content = "block " + std::to_string(rec.start) + ' ' +
                        std::to_string(rec.cases.size()) + ' ' +
                        hex64(rec.digest_after);
  for (const SweepCaseOutcome& e : rec.cases) {
    if (e.ok) {
      const double fields[] = {e.metrics.total_carbon_t,
                               e.metrics.total_energy_mwh,
                               e.metrics.mean_wait_h,
                               e.metrics.mean_bounded_slowdown,
                               e.metrics.utilization,
                               e.metrics.green_energy_share,
                               e.metrics.completed};
      content += " c";
      for (const double v : fields) content += ' ' + hex64(double_bits(v));
    } else {
      content += " f " + std::to_string(e.attempts) + ' ' + encode_text(e.error);
    }
  }
  return seal(content);
}

/// Parse the tokens of a block line's content; false on any structural
/// problem.
inline bool parse_block_tokens(const std::vector<std::string_view>& toks,
                               SweepBlock& rec) {
  if (toks.size() < 4 || toks[0] != "block") return false;
  std::size_t count = 0;
  if (!parse_size(toks[1], rec.start) || !parse_size(toks[2], count) ||
      !parse_hex64(toks[3], rec.digest_after)) {
    return false;
  }
  rec.cases.clear();
  // Every entry takes at least 3 tokens, so this bounds a forged count.
  rec.cases.reserve(std::min(count, (toks.size() - 4) / 3));
  std::size_t i = 4;
  while (i < toks.size()) {
    SweepCaseOutcome entry;
    if (toks[i] == "c") {
      if (i + 7 >= toks.size()) return false;
      double* fields[] = {&entry.metrics.total_carbon_t,
                          &entry.metrics.total_energy_mwh,
                          &entry.metrics.mean_wait_h,
                          &entry.metrics.mean_bounded_slowdown,
                          &entry.metrics.utilization,
                          &entry.metrics.green_energy_share,
                          &entry.metrics.completed};
      for (std::size_t k = 0; k < 7; ++k) {
        std::uint64_t bits = 0;
        if (!parse_hex64(toks[i + 1 + k], bits)) return false;
        *fields[k] = bits_double(bits);
      }
      entry.ok = true;
      i += 8;
    } else if (toks[i] == "f") {
      if (i + 2 >= toks.size()) return false;
      std::size_t attempts = 0;
      if (!parse_size(toks[i + 1], attempts)) return false;
      entry.attempts = static_cast<int>(attempts);
      if (!decode_text(toks[i + 2], entry.error)) return false;
      entry.ok = false;
      i += 3;
    } else {
      return false;
    }
    rec.cases.push_back(std::move(entry));
  }
  return rec.cases.size() == count;
}

/// Parse the CONTENT of a block line (already unsealed); false on any
/// structural problem.
inline bool parse_block(std::string_view content, SweepBlock& rec) {
  return parse_block_tokens(tokens_of(content), rec);
}

}  // namespace greenhpc::core::wire
