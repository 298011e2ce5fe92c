#include "core/sweep_protocol.hpp"

#include "core/sweep_wire.hpp"

namespace greenhpc::core {

std::string encode_hello(long pid, std::uint64_t config_digest,
                         std::size_t cases, std::size_t block_size) {
  return wire::seal("hello " + std::to_string(pid) + ' ' +
                    wire::hex64(config_digest) + ' ' + std::to_string(cases) +
                    ' ' + std::to_string(block_size));
}

std::string encode_heartbeat(long pid) {
  return wire::seal("hb " + std::to_string(pid));
}

std::string encode_assign(std::size_t start, std::size_t count) {
  return wire::seal("assign " + std::to_string(start) + ' ' +
                    std::to_string(count));
}

std::string encode_shutdown() { return wire::seal("shutdown"); }

std::string encode_block(const SweepBlock& block) {
  return wire::serialize_block(block);
}

namespace {

// Defensive parse caps: the seal already rejects line noise, so anything
// hitting these is a logic bug or forged input — but an attempted
// multi-gigabyte allocation must not be how we find out.
constexpr std::size_t kMaxObsEntries = 65536;  ///< per stat/trace section
constexpr std::size_t kMaxHistBounds = 512;

}  // namespace

std::string encode_stat(long pid, std::uint64_t now_ns,
                        const obs::StatSnapshot& snap) {
  std::string content = "stat " + std::to_string(pid) + ' ' +
                        wire::hex64(now_ns);
  content += " c " + std::to_string(snap.counters.size());
  for (const auto& [name, v] : snap.counters) {
    content += ' ' + wire::encode_text(name) + ' ' + wire::hex64(v);
  }
  content += " g " + std::to_string(snap.gauges.size());
  for (const auto& [name, v] : snap.gauges) {
    content += ' ' + wire::encode_text(name) + ' ' +
               wire::hex64(wire::double_bits(v));
  }
  content += " h " + std::to_string(snap.histograms.size());
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    content += ' ' + wire::encode_text(h.name) + ' ' +
               wire::hex64(wire::double_bits(h.sum)) + ' ' +
               std::to_string(h.bounds.size());
    for (const double b : h.bounds) {
      content += ' ' + wire::hex64(wire::double_bits(b));
    }
    for (const std::uint64_t c : h.counts) content += ' ' + std::to_string(c);
  }
  return wire::seal(content);
}

std::string encode_trace(long pid, std::uint64_t now_ns, std::uint64_t dropped,
                         const std::vector<obs::RemoteTraceEvent>& events) {
  std::string content = "trace " + std::to_string(pid) + ' ' +
                        wire::hex64(now_ns) + ' ' + std::to_string(dropped) +
                        ' ' + std::to_string(events.size());
  for (const obs::RemoteTraceEvent& e : events) {
    content += ' ' + wire::encode_text(e.name) + ' ' +
               wire::encode_text(e.cat) + ' ' + std::to_string(e.tid) + ' ';
    content += e.phase;
    content += ' ' + wire::hex64(e.ts_ns) + ' ' + wire::hex64(e.dur_ns) + ' ' +
               wire::hex64(wire::double_bits(e.value));
  }
  return wire::seal(content);
}

namespace {

/// Parse the token run of a stat line after the verb; false on any
/// structural defect (the caller downgrades to ObsRejected, not
/// Malformed).
bool parse_stat_tokens(const std::vector<std::string_view>& toks, Message& msg) {
  std::size_t i = 1;
  std::size_t pid = 0;
  if (toks.size() < 3 || !wire::parse_size(toks[i], pid) ||
      !wire::parse_hex64(toks[i + 1], msg.remote_now_ns)) {
    return false;
  }
  msg.pid = static_cast<long>(pid);
  i += 2;

  const auto section_count = [&](const char* tag, std::size_t& n) -> bool {
    if (i + 1 >= toks.size() || toks[i] != tag ||
        !wire::parse_size(toks[i + 1], n) || n > kMaxObsEntries) {
      return false;
    }
    i += 2;
    return true;
  };

  std::size_t nc = 0;
  if (!section_count("c", nc)) return false;
  msg.stats.counters.reserve(nc);
  for (std::size_t k = 0; k < nc; ++k) {
    std::string name;
    std::uint64_t v = 0;
    if (i + 1 >= toks.size() || !wire::decode_text(toks[i], name) ||
        !wire::parse_hex64(toks[i + 1], v)) {
      return false;
    }
    msg.stats.counters.emplace_back(std::move(name), v);
    i += 2;
  }

  std::size_t ng = 0;
  if (!section_count("g", ng)) return false;
  msg.stats.gauges.reserve(ng);
  for (std::size_t k = 0; k < ng; ++k) {
    std::string name;
    std::uint64_t bits = 0;
    if (i + 1 >= toks.size() || !wire::decode_text(toks[i], name) ||
        !wire::parse_hex64(toks[i + 1], bits)) {
      return false;
    }
    msg.stats.gauges.emplace_back(std::move(name), wire::bits_double(bits));
    i += 2;
  }

  std::size_t nh = 0;
  if (!section_count("h", nh)) return false;
  msg.stats.histograms.reserve(nh);
  for (std::size_t k = 0; k < nh; ++k) {
    obs::HistogramSnapshot h;
    std::uint64_t sum_bits = 0;
    std::size_t nb = 0;
    if (i + 2 >= toks.size() || !wire::decode_text(toks[i], h.name) ||
        !wire::parse_hex64(toks[i + 1], sum_bits) ||
        !wire::parse_size(toks[i + 2], nb) || nb > kMaxHistBounds) {
      return false;
    }
    h.sum = wire::bits_double(sum_bits);
    i += 3;
    if (i + nb + (nb + 1) > toks.size()) return false;
    h.bounds.reserve(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      std::uint64_t bits = 0;
      if (!wire::parse_hex64(toks[i + b], bits)) return false;
      h.bounds.push_back(wire::bits_double(bits));
    }
    i += nb;
    h.counts.reserve(nb + 1);
    for (std::size_t b = 0; b < nb + 1; ++b) {
      std::size_t c = 0;
      if (!wire::parse_size(toks[i + b], c)) return false;
      h.counts.push_back(c);
    }
    i += nb + 1;
    msg.stats.histograms.push_back(std::move(h));
  }
  return i == toks.size();
}

/// Same for a trace line after the verb.
bool parse_trace_tokens(const std::vector<std::string_view>& toks, Message& msg) {
  std::size_t i = 1;
  std::size_t pid = 0;
  std::size_t dropped = 0;
  std::size_t n = 0;
  if (toks.size() < 5 || !wire::parse_size(toks[i], pid) ||
      !wire::parse_hex64(toks[i + 1], msg.remote_now_ns) ||
      !wire::parse_size(toks[i + 2], dropped) ||
      !wire::parse_size(toks[i + 3], n) || n > kMaxObsEntries) {
    return false;
  }
  msg.pid = static_cast<long>(pid);
  msg.trace_dropped = dropped;
  i += 4;
  if (i + n * 7 != toks.size()) return false;
  msg.trace_events.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    obs::RemoteTraceEvent e;
    std::size_t tid = 0;
    std::uint64_t value_bits = 0;
    if (!wire::decode_text(toks[i], e.name) ||
        !wire::decode_text(toks[i + 1], e.cat) ||
        !wire::parse_size(toks[i + 2], tid) || tid > kMaxObsEntries ||
        toks[i + 3].size() != 1 ||
        (toks[i + 3][0] != 'X' && toks[i + 3][0] != 'i' &&
         toks[i + 3][0] != 'C') ||
        !wire::parse_hex64(toks[i + 4], e.ts_ns) ||
        !wire::parse_hex64(toks[i + 5], e.dur_ns) ||
        !wire::parse_hex64(toks[i + 6], value_bits)) {
      return false;
    }
    e.tid = static_cast<int>(tid);
    e.phase = toks[i + 3][0];
    e.value = wire::bits_double(value_bits);
    i += 7;
    msg.trace_events.push_back(std::move(e));
  }
  return true;
}

}  // namespace

Message parse_message(const std::string& line) {
  Message msg;  // Malformed until proven otherwise
  // Classify observability-plane lines by their raw verb prefix BEFORE
  // the seal check: a truncated or bit-flipped stat/trace line must
  // still be ObsRejected (dropped, counted), never Malformed (fatal).
  const std::string_view view(line);
  if (view.starts_with("stat ") || view.starts_with("trace ")) {
    msg.kind = MsgKind::ObsRejected;
  }
  std::string_view content;
  if (!wire::unseal(view, content)) return msg;
  // Tokenized once; a block line's tokens go straight to the block parser.
  const std::vector<std::string_view> toks = wire::tokens_of(content);
  if (toks.empty()) return msg;

  if (toks[0] == "hello") {
    std::size_t pid = 0;
    if (toks.size() != 5 || !wire::parse_size(toks[1], pid) ||
        !wire::parse_hex64(toks[2], msg.config_digest) ||
        !wire::parse_size(toks[3], msg.cases) ||
        !wire::parse_size(toks[4], msg.block_size) || msg.block_size == 0) {
      return msg;
    }
    msg.pid = static_cast<long>(pid);
    msg.kind = MsgKind::Hello;
    return msg;
  }
  if (toks[0] == "hb") {
    std::size_t pid = 0;
    if (toks.size() != 2 || !wire::parse_size(toks[1], pid)) return msg;
    msg.pid = static_cast<long>(pid);
    msg.kind = MsgKind::Heartbeat;
    return msg;
  }
  if (toks[0] == "assign") {
    if (toks.size() != 3 || !wire::parse_size(toks[1], msg.start) ||
        !wire::parse_size(toks[2], msg.count) || msg.count == 0) {
      return msg;
    }
    msg.kind = MsgKind::Assign;
    return msg;
  }
  if (toks[0] == "shutdown") {
    if (toks.size() != 1) return msg;
    msg.kind = MsgKind::Shutdown;
    return msg;
  }
  if (toks[0] == "block") {
    if (!wire::parse_block_tokens(toks, msg.block)) return msg;
    msg.kind = MsgKind::Block;
    return msg;
  }
  if (toks[0] == "stat") {
    if (!parse_stat_tokens(toks, msg)) {
      msg = Message{};
      msg.kind = MsgKind::ObsRejected;
      return msg;
    }
    msg.kind = MsgKind::Stat;
    return msg;
  }
  if (toks[0] == "trace") {
    if (!parse_trace_tokens(toks, msg)) {
      msg = Message{};
      msg.kind = MsgKind::ObsRejected;
      return msg;
    }
    msg.kind = MsgKind::Trace;
    return msg;
  }
  return msg;
}

}  // namespace greenhpc::core
