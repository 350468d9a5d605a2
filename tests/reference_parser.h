// Reference implementation of the control-log text parser: the
// FieldScanner/LineScanner tokenizer that of::parse_control_events used
// before the single-cursor line parser, kept only as the differential
// oracle for parser_oracle_test. It splits each line into whitespace
// tokens first and then parses every token on its own with
// std::from_chars (or Ipv4::parse), so its accept/reject rules are
// obviously those of the standard library; the production parser must
// accept, reject and decode exactly the same lines.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "openflow/control_log.h"
#include "openflow/timed_flow.h"
#include "util/ipv4.h"

namespace flowdiff::of::reference {

constexpr bool is_field_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Zero-copy whitespace tokenizer over one line: every token is a view
/// into the caller's buffer, numbers go through std::from_chars — no
/// copies, no exceptions, no per-field allocations. Any failure poisons
/// the line (callers bail to nullopt), matching the capture format's
/// all-or-nothing contract.
class FieldScanner {
 public:
  explicit FieldScanner(std::string_view line) : rest_(line) {}

  std::optional<std::string_view> token() {
    std::size_t i = 0;
    while (i < rest_.size() && is_field_space(rest_[i])) ++i;
    if (i == rest_.size()) {
      rest_ = {};
      return std::nullopt;
    }
    std::size_t j = i;
    while (j < rest_.size() && !is_field_space(rest_[j])) ++j;
    const std::string_view tok = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return tok;
  }

  template <typename Int>
  std::optional<Int> number() {
    const auto t = token();
    if (!t) return std::nullopt;
    return parse_number<Int>(*t);
  }

  /// Full-token numeric parse: trailing bytes, sign mismatches, and values
  /// outside Int's range all reject (std::from_chars never throws, unlike
  /// the std::stoi family this replaced).
  template <typename Int>
  static std::optional<Int> parse_number(std::string_view t) {
    Int value{};
    const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc{} || p != t.data() + t.size()) return std::nullopt;
    return value;
  }

  std::optional<Ipv4> ip() {
    const auto t = token();
    if (!t) return std::nullopt;
    return Ipv4::parse(*t);
  }

  std::optional<FlowKey> key() {
    FlowKey k;
    const auto src = ip();
    const auto sport = number<std::uint16_t>();
    const auto dst = ip();
    const auto dport = number<std::uint16_t>();
    const auto proto = number<int>();
    if (!src || !sport || !dst || !dport || !proto) return std::nullopt;
    k.src_ip = *src;
    k.src_port = *sport;
    k.dst_ip = *dst;
    k.dst_port = *dport;
    k.proto = static_cast<Proto>(*proto);
    return k;
  }

  std::optional<FlowMatch> match() {
    FlowMatch m;
    auto next = [this]() { return token(); };
    const auto fields = std::array{next(), next(), next(), next(), next(),
                                   next()};
    for (const auto& f : fields) {
      if (!f) return std::nullopt;
    }
    // Wildcard ('-') means "field absent"; anything else must parse, and a
    // present-but-garbled field rejects the whole line rather than being
    // silently widened to a wildcard.
    if (*fields[0] != "-") {
      m.src_ip = Ipv4::parse(*fields[0]);
      if (!m.src_ip) return std::nullopt;
    }
    if (*fields[1] != "-") {
      m.src_port = parse_u16(*fields[1]);
      if (!m.src_port) return std::nullopt;
    }
    if (*fields[2] != "-") {
      m.dst_ip = Ipv4::parse(*fields[2]);
      if (!m.dst_ip) return std::nullopt;
    }
    if (*fields[3] != "-") {
      m.dst_port = parse_u16(*fields[3]);
      if (!m.dst_port) return std::nullopt;
    }
    if (*fields[4] != "-") {
      const auto proto = parse_number<int>(*fields[4]);
      if (!proto) return std::nullopt;
      m.proto = static_cast<Proto>(*proto);
    }
    if (*fields[5] != "-") {
      const auto port = parse_number<std::uint32_t>(*fields[5]);
      if (!port) return std::nullopt;
      m.in_port = PortId{*port};
    }
    return m;
  }

 private:
  /// Port fields reject values > 65535 outright (from_chars'
  /// result_out_of_range) instead of truncating them modulo 2^16.
  static std::optional<std::uint16_t> parse_u16(std::string_view t) {
    return parse_number<std::uint16_t>(t);
  }

  std::string_view rest_;
};

/// Splits text into '\n'-terminated line views without copying; blank and
/// '#'-comment lines are skipped here so every line handed back is a
/// candidate record.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  std::optional<std::string_view> next() {
    while (!rest_.empty()) {
      const std::size_t eol = rest_.find('\n');
      std::string_view line = rest_.substr(0, eol);
      rest_.remove_prefix(eol == std::string_view::npos ? rest_.size()
                                                        : eol + 1);
      if (line.empty() || line[0] == '#') continue;
      return line;
    }
    return std::nullopt;
  }

 private:
  std::string_view rest_;
};

/// Parses the payload of one event line (everything after the leading
/// kind/ts/ctrl triple, which the caller already consumed).
inline bool parse_event_body(std::string_view kind, FieldScanner& r,
                      ControlEvent& event) {
  if (kind == "PIN") {
    PacketIn pin;
    const auto sw = r.number<std::uint32_t>();
    const auto in_port = r.number<std::uint32_t>();
    const auto key = r.key();
    const auto uid = r.number<std::uint64_t>();
    if (!sw || !in_port || !key || !uid) return false;
    pin.sw = SwitchId{*sw};
    pin.in_port = PortId{*in_port};
    pin.key = *key;
    pin.flow_uid = *uid;
    event.msg = pin;
  } else if (kind == "FMOD") {
    FlowMod fm;
    const auto sw = r.number<std::uint32_t>();
    const auto out_port = r.number<std::uint32_t>();
    const auto idle = r.number<SimDuration>();
    const auto hard = r.number<SimDuration>();
    const auto match = r.match();
    const auto key = r.key();
    const auto uid = r.number<std::uint64_t>();
    if (!sw || !out_port || !idle || !hard || !match || !key || !uid) {
      return false;
    }
    fm.sw = SwitchId{*sw};
    fm.out_port = PortId{*out_port};
    fm.idle_timeout = *idle;
    fm.hard_timeout = *hard;
    fm.match = *match;
    fm.key = *key;
    fm.flow_uid = *uid;
    event.msg = fm;
  } else if (kind == "POUT") {
    PacketOut po;
    const auto sw = r.number<std::uint32_t>();
    const auto out_port = r.number<std::uint32_t>();
    const auto key = r.key();
    const auto uid = r.number<std::uint64_t>();
    if (!sw || !out_port || !key || !uid) return false;
    po.sw = SwitchId{*sw};
    po.out_port = PortId{*out_port};
    po.key = *key;
    po.flow_uid = *uid;
    event.msg = po;
  } else if (kind == "FREM") {
    FlowRemoved fr;
    const auto sw = r.number<std::uint32_t>();
    const auto reason = r.number<int>();
    const auto duration = r.number<SimDuration>();
    const auto bytes = r.number<std::uint64_t>();
    const auto pkts = r.number<std::uint64_t>();
    const auto match = r.match();
    const auto key = r.key();
    if (!sw || !reason || !duration || !bytes || !pkts || !match || !key) {
      return false;
    }
    fr.sw = SwitchId{*sw};
    fr.reason = static_cast<RemovedReason>(*reason);
    fr.duration = *duration;
    fr.byte_count = *bytes;
    fr.packet_count = *pkts;
    fr.match = *match;
    fr.key = *key;
    event.msg = fr;
  } else if (kind == "STAT") {
    FlowStatsReply st;
    const auto sw = r.number<std::uint32_t>();
    const auto age = r.number<SimDuration>();
    const auto bytes = r.number<std::uint64_t>();
    const auto pkts = r.number<std::uint64_t>();
    const auto match = r.match();
    const auto key = r.key();
    if (!sw || !age || !bytes || !pkts || !match || !key) {
      return false;
    }
    st.sw = SwitchId{*sw};
    st.age = *age;
    st.byte_count = *bytes;
    st.packet_count = *pkts;
    st.match = *match;
    st.key = *key;
    event.msg = st;
  } else if (kind == "ECHO") {
    EchoReply echo;
    const auto sw = r.number<std::uint32_t>();
    if (!sw) return false;
    echo.sw = SwitchId{*sw};
    event.msg = echo;
  } else {
    return false;  // Unknown record type.
  }
  return true;
}
/// Appending parse, all-or-nothing over `text` (rolls `out` back on a
/// malformed line).
inline bool parse_control_events(std::string_view text,
                                 std::vector<ControlEvent>& out) {
  const std::size_t mark = out.size();
  LineScanner lines(text);
  while (const auto line = lines.next()) {
    FieldScanner r(*line);
    const auto kind = r.token();
    const auto ts = r.number<SimTime>();
    const auto ctrl = r.number<std::uint32_t>();
    ControlEvent& event = out.emplace_back();
    if (kind && ts && ctrl) {
      event.ts = *ts;
      event.controller = ControllerId{*ctrl};
      if (parse_event_body(*kind, r, event)) continue;
    }
    out.resize(mark);
    return false;
  }
  return true;
}

inline std::optional<FlowSequence> parse_flow_sequence(std::string_view text) {
  FlowSequence flows;
  flows.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  LineScanner lines(text);
  while (const auto line = lines.next()) {
    FieldScanner r(*line);
    const auto kind = r.token();
    if (!kind || *kind != "FLOW") return std::nullopt;
    const auto ts = r.number<SimTime>();
    const auto key = r.key();
    if (!ts || !key) return std::nullopt;
    flows.push_back(TimedFlow{*ts, *key});
  }
  return flows;
}

}  // namespace flowdiff::of::reference
