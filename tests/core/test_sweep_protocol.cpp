#include "core/sweep_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/sweep_journal.hpp"
#include "core/sweep_wire.hpp"

namespace greenhpc::core {
namespace {

/// A block record exercising both case shapes: exact (including awkward)
/// double bit patterns for the success path, hex-encoded error text with
/// whitespace and non-ASCII bytes for the quarantine path.
SweepBlock sample_block() {
  SweepBlock rec;
  rec.start = 12;
  SweepCaseOutcome ok;
  ok.ok = true;
  ok.metrics.total_carbon_t = 1.25;
  ok.metrics.total_energy_mwh = -0.0;  // signed zero must survive
  ok.metrics.mean_wait_h = 3.5e-321;   // subnormal must survive
  ok.metrics.mean_bounded_slowdown = 7.0;
  ok.metrics.utilization = 0.875;
  ok.metrics.green_energy_share = 1.0 / 3.0;
  ok.metrics.completed = 48.0;
  ok.attempts = 1;
  SweepCaseOutcome bad;
  bad.ok = false;
  bad.attempts = 3;
  bad.error = "scheduler exploded: node 7 | \"quoted\"\nline two\xc3\xa9";
  rec.cases = {ok, bad, ok};
  rec.digest_after = sweep_block_digest(rec);
  return rec;
}

TEST(SweepWire, SealAndUnsealRejectCorruption) {
  const std::string line = wire::seal("hello world 42");
  std::string_view content;
  ASSERT_TRUE(wire::unseal(line, content));
  EXPECT_EQ(content, "hello world 42");

  std::string flipped = line;
  flipped[1] ^= 0x1;
  EXPECT_FALSE(wire::unseal(flipped, content));

  EXPECT_FALSE(wire::unseal("no trailer here", content));
  EXPECT_FALSE(wire::unseal(line.substr(0, line.size() - 3), content));
  // Checksum over content INCLUDING an embedded " | " stays unambiguous:
  // unseal splits at the LAST separator.
  const std::string tricky = wire::seal("a | b | c");
  ASSERT_TRUE(wire::unseal(tricky, content));
  EXPECT_EQ(content, "a | b | c");
}

TEST(SweepWire, DoubleBitsRoundTripExactly) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 3.5e-321, 1e308,
                           -2.5, std::nan("")};
  for (const double v : values) {
    const std::uint64_t bits = wire::double_bits(v);
    std::uint64_t parsed = 0;
    ASSERT_TRUE(wire::parse_hex64(wire::hex64(bits), parsed));
    EXPECT_EQ(parsed, bits);
    EXPECT_EQ(wire::double_bits(wire::bits_double(parsed)), bits);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(wire::parse_hex64("", out));
  EXPECT_FALSE(wire::parse_hex64("xyz", out));
  EXPECT_FALSE(wire::parse_hex64("0123456789abcdef0", out));  // 17 digits
}

TEST(SweepWire, TextEncodingRoundTripsArbitraryBytes) {
  std::string decoded;
  ASSERT_TRUE(wire::decode_text(wire::encode_text(""), decoded));
  EXPECT_EQ(decoded, "");
  const std::string nasty("tab\t nl\n nul\0 hi\xff", 17);
  ASSERT_TRUE(wire::decode_text(wire::encode_text(nasty), decoded));
  EXPECT_EQ(decoded, nasty);
  EXPECT_FALSE(wire::decode_text("abc", decoded));   // odd length
  EXPECT_FALSE(wire::decode_text("zz", decoded));    // not hex
}

TEST(SweepWire, BlockRoundTripIsExact) {
  const SweepBlock rec = sample_block();
  const std::string line = wire::serialize_block(rec);
  std::string_view content;
  ASSERT_TRUE(wire::unseal(line, content));
  SweepBlock back;
  ASSERT_TRUE(wire::parse_block(content, back));
  EXPECT_EQ(back.start, rec.start);
  EXPECT_EQ(back.digest_after, rec.digest_after);
  ASSERT_EQ(back.cases.size(), rec.cases.size());
  for (std::size_t i = 0; i < rec.cases.size(); ++i) {
    EXPECT_EQ(back.cases[i].ok, rec.cases[i].ok);
    if (rec.cases[i].ok) {
      EXPECT_EQ(wire::double_bits(back.cases[i].metrics.mean_wait_h),
                wire::double_bits(rec.cases[i].metrics.mean_wait_h));
      EXPECT_EQ(wire::double_bits(back.cases[i].metrics.total_energy_mwh),
                wire::double_bits(rec.cases[i].metrics.total_energy_mwh));
    } else {
      EXPECT_EQ(back.cases[i].attempts, rec.cases[i].attempts);
      EXPECT_EQ(back.cases[i].error, rec.cases[i].error);
    }
  }
  // The parsed record re-folds to the same block-local digest.
  EXPECT_EQ(sweep_block_digest(back), rec.digest_after);
}

TEST(SweepWire, ParseBlockRejectsStructuralDefects) {
  SweepBlock rec;
  EXPECT_FALSE(wire::parse_block("", rec));
  EXPECT_FALSE(wire::parse_block("record 0 1 0", rec));          // wrong verb
  EXPECT_FALSE(wire::parse_block("block 0 1 0 x", rec));        // bad entry tag
  EXPECT_FALSE(wire::parse_block("block 0 2 0 c 1 2 3 4 5 6 7", rec));  // count
  EXPECT_FALSE(wire::parse_block("block 0 1 0 c 1 2 3", rec));  // short metrics
  EXPECT_FALSE(wire::parse_block("block 0 1 0 f 2", rec));      // short failure
}

TEST(SweepProtocol, ControlMessagesRoundTrip) {
  const Message hello = parse_message(encode_hello(4242, 0xdeadbeefcafe, 96, 8));
  EXPECT_EQ(hello.kind, MsgKind::Hello);
  EXPECT_EQ(hello.pid, 4242);
  EXPECT_EQ(hello.config_digest, 0xdeadbeefcafeull);
  EXPECT_EQ(hello.cases, 96u);
  EXPECT_EQ(hello.block_size, 8u);

  const Message hb = parse_message(encode_heartbeat(4242));
  EXPECT_EQ(hb.kind, MsgKind::Heartbeat);
  EXPECT_EQ(hb.pid, 4242);

  const Message assign = parse_message(encode_assign(24, 8));
  EXPECT_EQ(assign.kind, MsgKind::Assign);
  EXPECT_EQ(assign.start, 24u);
  EXPECT_EQ(assign.count, 8u);

  EXPECT_EQ(parse_message(encode_shutdown()).kind, MsgKind::Shutdown);
}

TEST(SweepProtocol, BlockMessageCarriesTheRecord) {
  const SweepBlock rec = sample_block();
  const Message msg = parse_message(wire::serialize_block(rec));
  ASSERT_EQ(msg.kind, MsgKind::Block);
  EXPECT_EQ(msg.block.start, rec.start);
  EXPECT_EQ(msg.block.digest_after, rec.digest_after);
  EXPECT_EQ(msg.block.cases.size(), rec.cases.size());
  EXPECT_EQ(sweep_block_digest(msg.block), rec.digest_after);
}

TEST(SweepProtocol, AnyDefectIsMalformedNeverAThrow) {
  EXPECT_EQ(parse_message("").kind, MsgKind::Malformed);
  EXPECT_EQ(parse_message("hello unsealed").kind, MsgKind::Malformed);
  EXPECT_EQ(parse_message(wire::seal("frobnicate 1 2")).kind, MsgKind::Malformed);
  EXPECT_EQ(parse_message(wire::seal("hb")).kind, MsgKind::Malformed);  // arity
  EXPECT_EQ(parse_message(wire::seal("assign 5")).kind, MsgKind::Malformed);
  EXPECT_EQ(parse_message(wire::seal("assign 5 0")).kind,
            MsgKind::Malformed);  // zero-count assignment is meaningless
  EXPECT_EQ(parse_message(wire::seal("hello 1 nothex 10 2")).kind,
            MsgKind::Malformed);
  EXPECT_EQ(parse_message(wire::seal("hello 1 0 10 0")).kind,
            MsgKind::Malformed);  // zero block size

  // A sealed line whose checksum fails after a single bit flip.
  std::string line = encode_assign(24, 8);
  line[8] ^= 0x1;
  EXPECT_EQ(parse_message(line).kind, MsgKind::Malformed);

  // A block line with a good seal but torn content (truncated before
  // sealing would fail the count check).
  SweepBlock rec = sample_block();
  rec.cases.pop_back();  // count now disagrees with the recorded 3
  const std::string whole = wire::serialize_block(sample_block());
  std::string_view content;
  ASSERT_TRUE(wire::unseal(whole, content));
  const std::string torn =
      wire::seal(std::string(content.substr(0, content.size() - 20)));
  EXPECT_EQ(parse_message(torn).kind, MsgKind::Malformed);
}

/// The content of a sealed line, as a string (the seal already checked).
std::string content_of(const std::string& line) {
  std::string_view content;
  EXPECT_TRUE(wire::unseal(line, content)) << line;
  return std::string(content);
}

TEST(SweepProtocol, EncodersWriteTheDocumentedBytes) {
  EXPECT_EQ(content_of(encode_hello(7, 0xff, 96, 8)), "hello 7 00000000000000ff 96 8");
  EXPECT_EQ(content_of(encode_heartbeat(7)), "hb 7");
  EXPECT_EQ(content_of(encode_assign(24, 8)), "assign 24 8");
  EXPECT_EQ(content_of(encode_shutdown()), "shutdown");
  SweepBlock rec;
  rec.start = 4;
  rec.cases.resize(2);
  rec.cases[0].ok = true;
  rec.cases[0].metrics.completed = 1.0;
  rec.cases[1].ok = false;
  rec.cases[1].attempts = 2;
  rec.cases[1].error = "x y";
  rec.digest_after = 0xabc;
  EXPECT_EQ(content_of(wire::serialize_block(rec)),
            "block 4 2 0000000000000abc c 0000000000000000 0000000000000000 "
            "0000000000000000 0000000000000000 0000000000000000 0000000000000000 "
            "3ff0000000000000 f 2 782079");
  EXPECT_EQ(wire::serialize_block(rec), SweepJournal::serialize_block_line(rec));
  obs::StatSnapshot snap;
  snap.counters = {{"a", 3}};
  snap.gauges = {{"b", 0.5}};
  obs::HistogramSnapshot h;
  h.name = "h";
  h.bounds = {1.0};
  h.counts = {2, 0};
  h.sum = 0.25;
  snap.histograms = {h};
  EXPECT_EQ(content_of(encode_stat(9, 16, snap)),
            "stat 9 0000000000000010 c 1 61 0000000000000003 g 1 62 3fe0000000000000 "
            "h 1 68 3fd0000000000000 1 3ff0000000000000 2 0");
  obs::RemoteTraceEvent e;
  e.name = "n";
  e.cat = "fleet";
  e.tid = 1;
  e.phase = 'X';
  e.ts_ns = 2;
  e.dur_ns = 3;
  EXPECT_EQ(content_of(encode_trace(9, 16, 0, {e})),
            "trace 9 0000000000000010 0 1 6e 666c656574 1 X 0000000000000002 "
            "0000000000000003 0000000000000000");
}

TEST(SweepProtocol, LineCorpusParsesAsTheGrammarSays) {
  struct Case {
    const char* content;
    MsgKind kind;
  };
  const Case corpus[] = {
      // Tokens split on any run of whitespace, as they always have.
      {"assign\t24  8", MsgKind::Assign},
      {"  hb 7 ", MsgKind::Heartbeat},
      {"shutdown\r", MsgKind::Shutdown},
      {"hello 1 00000000000000FF 2 3", MsgKind::Hello},
      {"block 0 1 0000000000000000 f 2 -", MsgKind::Block},
      {"stat 1 0 c 0 g 0 h 0", MsgKind::Stat},
      {"trace 1 0 0 0", MsgKind::Trace},
      // Control-plane defects are fatal.
      {"", MsgKind::Malformed},
      {" \t ", MsgKind::Malformed},
      {"frobnicate 1", MsgKind::Malformed},
      {"hb", MsgKind::Malformed},
      {"hb 1 2", MsgKind::Malformed},
      {"hb x", MsgKind::Malformed},
      {"hello 1 2 3", MsgKind::Malformed},
      {"hello 1 0 10 0", MsgKind::Malformed},
      {"hello 1 00000000000000000 10 2", MsgKind::Malformed},  // 17 hex digits
      {"assign 5", MsgKind::Malformed},
      {"assign 5 0", MsgKind::Malformed},
      {"assign 5 99999999999999999999", MsgKind::Malformed},  // overflows 64 bits
      {"shutdown now", MsgKind::Malformed},
      {"block 0 1 0 x", MsgKind::Malformed},
      {"block 0 1 0 f 2 abc", MsgKind::Malformed},  // odd-length text
      {"block 0 2 0 c 1 2 3 4 5 6 7", MsgKind::Malformed},
      {"statx 1 0 c 0 g 0 h 0", MsgKind::Malformed},
      // A number is digits only: no sign and no 0x, which no encoder writes.
      {"assign +5 8", MsgKind::Malformed},
      {"assign -1 8", MsgKind::Malformed},
      {"hello 1 0x1f 10 2", MsgKind::Malformed},
      // Observability-plane defects are dropped, never fatal.
      {"stat 1", MsgKind::ObsRejected},
      {"stat 1 0 c 1", MsgKind::ObsRejected},
      {"stat 1 0 c 0 g 0 h 0 extra", MsgKind::ObsRejected},
      {"stat 1 0 c 0 g 0 h 1 68 0 1", MsgKind::ObsRejected},
      {"stat 1 +10 c 0 g 0 h 0", MsgKind::ObsRejected},
      {"trace 1 0 0 2", MsgKind::ObsRejected},
      {"trace 1 0 0 1 6e 66 0 Q 0 0 0", MsgKind::ObsRejected},
      {"trace -1 0 0 0", MsgKind::ObsRejected},
  };
  for (const Case& c : corpus) {
    EXPECT_EQ(parse_message(wire::seal(c.content)).kind, c.kind) << '"' << c.content << '"';
  }
  const Message hello = parse_message(wire::seal("hello 1 00000000000000FF 2 3"));
  EXPECT_EQ(hello.config_digest, 0xffu);
  const Message assign = parse_message(wire::seal("assign\t24  8"));
  EXPECT_EQ(assign.start, 24u);
  EXPECT_EQ(assign.count, 8u);
  const Message block = parse_message(wire::seal("block 0 1 0000000000000000 f 2 -"));
  ASSERT_EQ(block.block.cases.size(), 1u);
  EXPECT_FALSE(block.block.cases[0].ok);
  EXPECT_EQ(block.block.cases[0].attempts, 2);
  EXPECT_EQ(block.block.cases[0].error, "");

  // The checksum is digits only too: a space inside it breaks the seal.
  std::string line = encode_assign(24, 8);
  line[line.size() - 16] = ' ';
  EXPECT_EQ(parse_message(line).kind, MsgKind::Malformed);
}

}  // namespace
}  // namespace greenhpc::core
