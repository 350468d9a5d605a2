// Differential oracle for the control-log text parser: the single-cursor
// line parser in openflow/log_io against the FieldScanner tokenizer kept
// in reference_parser.h. Both must agree on accept/reject and, for an
// accepted input, on every decoded field: timestamp, controller, the
// message's variant index and each field of the message, down to every
// FlowMatch optional. Inputs are generated captures covering all six
// record kinds and FLOW sequences, then over a million seeded mutations of
// their lines: bytes from the field-space, sign, dot, comment and digit
// sets (and NUL) substituted, inserted or deleted; tokens replaced by
// range-edge values, "-0", "-", leading zeros or a '+' prefix; records
// truncated, extended with trailing tokens, or given a CRLF ending.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "openflow/log_io.h"
#include "reference_parser.h"
#include "util/rng.h"

namespace flowdiff::of {
namespace {

// --- field-by-field equality ------------------------------------------------

bool same(const FlowMatch& a, const FlowMatch& b) {
  return a.src_ip == b.src_ip && a.src_port == b.src_port &&
         a.dst_ip == b.dst_ip && a.dst_port == b.dst_port &&
         a.proto == b.proto && a.in_port == b.in_port;
}

bool same(const PacketIn& a, const PacketIn& b) {
  return a.sw == b.sw && a.in_port == b.in_port && a.key == b.key &&
         a.flow_uid == b.flow_uid;
}

bool same(const FlowMod& a, const FlowMod& b) {
  return a.sw == b.sw && same(a.match, b.match) && a.out_port == b.out_port &&
         a.idle_timeout == b.idle_timeout &&
         a.hard_timeout == b.hard_timeout && a.key == b.key &&
         a.flow_uid == b.flow_uid;
}

bool same(const PacketOut& a, const PacketOut& b) {
  return a.sw == b.sw && a.out_port == b.out_port && a.key == b.key &&
         a.flow_uid == b.flow_uid;
}

bool same(const FlowRemoved& a, const FlowRemoved& b) {
  return a.sw == b.sw && same(a.match, b.match) && a.key == b.key &&
         a.reason == b.reason && a.duration == b.duration &&
         a.byte_count == b.byte_count && a.packet_count == b.packet_count;
}

bool same(const EchoReply& a, const EchoReply& b) { return a.sw == b.sw; }

bool same(const FlowStatsReply& a, const FlowStatsReply& b) {
  return a.sw == b.sw && same(a.match, b.match) && a.key == b.key &&
         a.age == b.age && a.byte_count == b.byte_count &&
         a.packet_count == b.packet_count;
}

bool same(const ControlEvent& a, const ControlEvent& b) {
  if (a.ts != b.ts || a.controller != b.controller ||
      a.msg.index() != b.msg.index()) {
    return false;
  }
  return std::visit(
      [&b](const auto& x) {
        return same(x, std::get<std::decay_t<decltype(x)>>(b.msg));
      },
      a.msg);
}

/// Runs both parsers on `text`; returns an empty string when they agree,
/// else what differed, and counts agreed acceptances in `accepted`. The
/// production side appends after a sentinel event so its all-or-nothing
/// rollback is checked on every input as well.
std::string compare_events(std::string_view text, int& accepted) {
  std::vector<ControlEvent> expected;
  const bool ref_ok = reference::parse_control_events(text, expected);

  ControlEvent sentinel;
  sentinel.ts = -7;
  sentinel.msg = EchoReply{SwitchId{9}};
  std::vector<ControlEvent> got{sentinel};
  const bool ok = parse_control_events(text, got);

  if (ok != ref_ok) {
    return std::string(ok ? "accepted" : "rejected") +
           " what the reference " + (ref_ok ? "accepts" : "rejects");
  }
  if (got.empty() || !same(got.front(), sentinel)) {
    return "clobbered the events already in the output";
  }
  if (!ok) {
    return got.size() == 1 ? "" : "kept events from a rejected input";
  }
  if (got.size() != expected.size() + 1) return "event count differs";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!same(got[i + 1], expected[i])) {
      return "event " + std::to_string(i) + " decodes differently";
    }
  }
  ++accepted;
  return "";
}

std::string compare_flows(std::string_view text, int& accepted) {
  const auto expected = reference::parse_flow_sequence(text);
  const auto got = parse_flow_sequence(text);
  if (got.has_value() != expected.has_value()) {
    return got ? "accepted what the reference rejects"
               : "rejected what the reference accepts";
  }
  if (!got) return "";
  if (*got != *expected) return "flows decode differently";
  ++accepted;
  return "";
}

/// Printable form of a failing input (NUL and control bytes escaped).
std::string escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

// --- generated captures -------------------------------------------------------

/// Numbers at and around every field's range edges, mixed with ordinary
/// values, so serialized records exercise the extremes unmutated too.
template <typename T>
T pick(Rng& rng, std::initializer_list<T> edges, T lo, T hi) {
  if (rng.bernoulli(0.2)) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1));
    return edges.begin()[i];
  }
  return static_cast<T>(rng.uniform_int(static_cast<std::int64_t>(lo),
                                        static_cast<std::int64_t>(hi)));
}

std::uint32_t any_u32(Rng& rng) {
  return pick<std::uint32_t>(rng, {0u, 1u, 65535u, 65536u, 0xffffffffu}, 0,
                             5000);
}

std::uint64_t any_u64(Rng& rng) {
  return pick<std::uint64_t>(
      rng, {0ull, 0x7fffffffffffffffull, 0x8000000000000000ull, ~0ull}, 0,
      1'000'000'000);
}

std::int64_t any_i64(Rng& rng) {
  return pick<std::int64_t>(
      rng, {0, -1, INT64_MIN, INT64_MAX, INT32_MIN, INT32_MAX},
      -50'000'000, 50'000'000'000);
}

Ipv4 any_ip(Rng& rng) {
  return Ipv4(static_cast<std::uint32_t>(
      rng.bernoulli(0.1) ? pick<std::uint32_t>(rng, {0u, 0xffffffffu}, 0, 0)
                         : 0x0a000000u + rng.uniform_int(0, 0xffff)));
}

FlowKey any_key(Rng& rng) {
  FlowKey k;
  k.src_ip = any_ip(rng);
  k.dst_ip = any_ip(rng);
  k.src_port = pick<std::uint16_t>(rng, {0, 65535}, 1024, 60000);
  k.dst_port = pick<std::uint16_t>(rng, {0, 65535}, 1, 9000);
  // Protocol is logged as an int; any uint8 value round-trips.
  k.proto = static_cast<Proto>(pick<int>(rng, {1, 6, 17, 0, 255}, 0, 255));
  return k;
}

FlowMatch any_match(Rng& rng) {
  FlowMatch m;
  if (rng.bernoulli(0.6)) m.src_ip = any_ip(rng);
  if (rng.bernoulli(0.5)) m.src_port = any_key(rng).src_port;
  if (rng.bernoulli(0.6)) m.dst_ip = any_ip(rng);
  if (rng.bernoulli(0.5)) m.dst_port = any_key(rng).dst_port;
  if (rng.bernoulli(0.5)) m.proto = any_key(rng).proto;
  if (rng.bernoulli(0.3)) m.in_port = PortId{any_u32(rng)};
  return m;
}

ControlEvent any_event(Rng& rng) {
  ControlEvent e;
  e.ts = any_i64(rng);
  e.controller = ControllerId{any_u32(rng)};
  switch (rng.uniform_int(0, 5)) {
    case 0:
      e.msg = PacketIn{SwitchId{any_u32(rng)}, PortId{any_u32(rng)},
                       any_key(rng), any_u64(rng)};
      break;
    case 1:
      e.msg = FlowMod{SwitchId{any_u32(rng)}, any_match(rng),
                      PortId{any_u32(rng)}, any_i64(rng), any_i64(rng),
                      any_key(rng), any_u64(rng)};
      break;
    case 2:
      e.msg = PacketOut{SwitchId{any_u32(rng)}, PortId{any_u32(rng)},
                        any_key(rng), any_u64(rng)};
      break;
    case 3:
      e.msg = FlowRemoved{
          SwitchId{any_u32(rng)}, any_match(rng), any_key(rng),
          static_cast<RemovedReason>(pick<int>(rng, {0, 1, 2, 255}, 0, 2)),
          any_i64(rng), any_u64(rng), any_u64(rng)};
      break;
    case 4:
      e.msg = EchoReply{SwitchId{any_u32(rng)}};
      break;
    default:
      e.msg = FlowStatsReply{SwitchId{any_u32(rng)}, any_match(rng),
                             any_key(rng), any_i64(rng), any_u64(rng),
                             any_u64(rng)};
      break;
  }
  return e;
}

FlowSequence any_flows(Rng& rng, int n) {
  FlowSequence flows;
  for (int i = 0; i < n; ++i) flows.push_back({any_i64(rng), any_key(rng)});
  return flows;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return lines;
}

// --- mutations -----------------------------------------------------------------

/// Bytes the field scanners treat specially: field space, signs, the
/// octet dot, the comment marker, digits, and NUL.
constexpr std::string_view kAlphabet("\t\r\v\f -+.#0123456789\0", 20);

/// Range-edge and malformed numeric tokens.
constexpr std::string_view kSpecialTokens[] = {
    "0", "-0", "00", "-", "--", "+0", "+1", "-1", "255", "256", "0255",
    "65535", "65536", "065535", "2147483647", "2147483648", "-2147483648",
    "-2147483649", "4294967295", "4294967296", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "18446744073709551615", "18446744073709551616", "99999999999999999999",
    "00000000000000000000000000000000042", "-00000000000000000000042",
    "1.2.3.4", "255.255.255.255", "256.0.0.1", "1.2.3", "1.2.3.4.5",
    "1..2.3", "01.002.0003.255", "1.2.3.-4", "-1.2.3.4", "#", "x"};

struct Span {
  std::size_t begin;
  std::size_t end;
};

/// Token spans of a line, split on field space (serialized lines use
/// single spaces, but earlier mutations may have added other separators).
std::vector<Span> tokens_of(const std::string& line) {
  const auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  };
  std::vector<Span> spans;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && space(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t b = i;
    while (i < line.size() && !space(line[i])) ++i;
    spans.push_back({b, i});
  }
  return spans;
}

std::size_t index_below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

char any_byte(Rng& rng) { return kAlphabet[index_below(rng, kAlphabet.size())]; }

void mutate_once(std::string& line, Rng& rng) {
  const auto spans = tokens_of(line);
  const auto any_token = [&]() -> Span {
    return spans.empty() ? Span{0, 0} : spans[index_below(rng, spans.size())];
  };
  switch (rng.uniform_int(0, 9)) {
    case 0:  // Substitute one byte.
      if (!line.empty()) line[index_below(rng, line.size())] = any_byte(rng);
      break;
    case 1: {  // Insert one byte.
      const std::size_t at = index_below(rng, line.size() + 1);
      line.insert(at, 1, any_byte(rng));
      break;
    }
    case 2:  // Delete one byte.
      if (!line.empty()) line.erase(index_below(rng, line.size()), 1);
      break;
    case 3: {  // Replace a token with a range-edge or malformed one.
      const Span s = any_token();
      const auto tok = kSpecialTokens[index_below(
          rng, std::size(kSpecialTokens))];
      line.replace(s.begin, s.end - s.begin, tok);
      break;
    }
    case 4: {  // Leading zeros.
      const Span s = any_token();
      line.insert(s.begin, static_cast<std::size_t>(rng.uniform_int(1, 25)),
                  '0');
      break;
    }
    case 5: {  // '-' into a slot: alone, or as a sign.
      const Span s = any_token();
      if (rng.bernoulli(0.5)) {
        line.replace(s.begin, s.end - s.begin, "-");
      } else {
        line.insert(s.begin, 1, rng.bernoulli(0.5) ? '-' : '+');
      }
      break;
    }
    case 6:  // Truncate the record, at a token boundary or mid-token.
      if (!spans.empty()) {
        const Span s = any_token();
        line.resize(rng.bernoulli(0.5) ? s.begin
                                       : s.begin + index_below(
                                                       rng, s.end - s.begin + 1));
      }
      break;
    case 7: {  // Trailing extra tokens.
      constexpr std::string_view kTails[] = {" 7", " junk", "\t-", " -1 x",
                                             " 1.2.3.4", "  #tail", " \x01"};
      line += kTails[index_below(rng, std::size(kTails))];
      break;
    }
    case 8:  // CRLF ending, or stray separators at either end.
      switch (rng.uniform_int(0, 3)) {
        case 0: line += '\r'; break;
        case 1: line += " \r"; break;
        case 2: line.insert(0, 1, ' '); break;
        default: line.insert(0, "\t\v"); break;
      }
      break;
    default: {  // Swap the separator after a token for another field space.
      const Span s = any_token();
      if (s.end < line.size()) line[s.end] = "\t\r\v\f"[rng.uniform_int(0, 3)];
      break;
    }
  }
}

std::string mutated(const std::string& line, Rng& rng) {
  std::string out = line;
  const auto n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) mutate_once(out, rng);
  return out;
}

// --- tests ---------------------------------------------------------------------

TEST(ParserOracle, GeneratedCapturesDecodeIdentically) {
  Rng rng(20240611);
  for (int capture = 0; capture < 200; ++capture) {
    std::vector<ControlEvent> events;
    const int n = static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < n; ++i) events.push_back(any_event(rng));
    std::string text = serialize(events);
    if (capture % 3 == 1) text += "\n# trailing comment\n\n";
    if (capture % 3 == 2 && !text.empty()) text.pop_back();  // No final '\n'.
    int accepted = 0;
    ASSERT_EQ(compare_events(text, accepted), "") << escaped(text);

    std::vector<ControlEvent> parsed;
    ASSERT_TRUE(parse_control_events(text, parsed));
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_TRUE(same(parsed[i], events[i])) << serialize_event(events[i]);
    }

    const std::string flows = serialize(any_flows(rng, n));
    ASSERT_EQ(compare_flows(flows, accepted), "") << escaped(flows);
    EXPECT_EQ(accepted, 2);
  }
}

/// Seeded mutation sweep: `lines` mutated lines of generated records (one
/// in eight a FLOW line), each parsed alone, and every 16 lines the last
/// batch joined into one multi-line text (LF or CRLF) to cover the line
/// splitter and the all-or-nothing rollback.
void sweep(std::uint64_t seed, int lines) {
  Rng rng(seed);
  std::vector<std::string> batch;
  int mismatches = 0;
  int accepted = 0;
  int joined_accepted = 0;
  for (int i = 0; i < lines; ++i) {
    const bool flow = i % 8 == 7;
    const std::string base =
        flow ? lines_of(serialize(any_flows(rng, 1)))[1]
             : serialize_event(any_event(rng));
    const std::string line = mutated(base, rng);
    const std::string diff =
        flow ? compare_flows(line, accepted) : compare_events(line, accepted);
    if (!diff.empty() && ++mismatches <= 10) {
      ADD_FAILURE() << diff << ": " << escaped(line) << "\n  from "
                    << escaped(base);
    }
    if (flow) continue;
    // Mostly intact lines, so that some joined batches are accepted and
    // compared event by event.
    batch.push_back(rng.bernoulli(0.9) ? base : line);
    if (batch.size() == 16) {
      const char* eol = rng.bernoulli(0.5) ? "\n" : "\r\n";
      std::string text;
      for (const auto& l : batch) text += l + eol;
      const std::string joined = compare_events(text, joined_accepted);
      if (!joined.empty() && ++mismatches <= 10) {
        ADD_FAILURE() << joined << " (joined batch): " << escaped(text);
      }
      batch.clear();
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Both outcomes must stay well covered (about 39% of mutated lines and
  // a third of joined batches are accepted).
  EXPECT_GT(accepted, lines / 5);
  EXPECT_LT(accepted, lines * 4 / 5);
  EXPECT_GT(joined_accepted, lines / 16 / 5);
}

TEST(ParserOracle, MutatedLinesSeed1) { sweep(1, 300'000); }
TEST(ParserOracle, MutatedLinesSeed2) { sweep(2, 300'000); }
TEST(ParserOracle, MutatedLinesSeed3) { sweep(3, 300'000); }
TEST(ParserOracle, MutatedLinesSeed4) { sweep(4, 300'000); }

}  // namespace
}  // namespace flowdiff::of
