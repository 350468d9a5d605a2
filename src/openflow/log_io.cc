#include "openflow/log_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

namespace flowdiff::of {

namespace {

void append_key(std::string& out, const FlowKey& key) {
  out += key.src_ip.to_string();
  out += ' ';
  out += std::to_string(key.src_port);
  out += ' ';
  out += key.dst_ip.to_string();
  out += ' ';
  out += std::to_string(key.dst_port);
  out += ' ';
  out += std::to_string(static_cast<int>(key.proto));
}

void append_match(std::string& out, const FlowMatch& match) {
  auto field = [&out](const auto& opt, auto render) {
    if (opt) {
      out += render(*opt);
    } else {
      out += '-';
    }
    out += ' ';
  };
  field(match.src_ip, [](Ipv4 ip) { return ip.to_string(); });
  field(match.src_port, [](std::uint16_t p) { return std::to_string(p); });
  field(match.dst_ip, [](Ipv4 ip) { return ip.to_string(); });
  field(match.dst_port, [](std::uint16_t p) { return std::to_string(p); });
  field(match.proto,
        [](Proto p) { return std::to_string(static_cast<int>(p)); });
  if (match.in_port) {
    out += std::to_string(match.in_port->value);
  } else {
    out += '-';
  }
}

constexpr bool is_field_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Decimal value of `c`, or something > 9 for any non-digit byte.
constexpr unsigned digit_of(char c) {
  return static_cast<unsigned>(static_cast<unsigned char>(c)) - unsigned{'0'};
}

/// One forward cursor over one capture line. Each field is decoded in a
/// single scan from the cursor: skip field space, consume and decode the
/// token's bytes, then require the token to end right there (end of line
/// or field space). Any failure rejects the whole line, matching the
/// capture format's all-or-nothing contract. Numbers follow
/// std::from_chars over the whole token: at least one digit, leading
/// zeros allowed, no '+', '-' only on signed fields, and values outside
/// the field's range reject instead of truncating.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next token as a view (empty at end of line).
  std::string_view word() {
    skip_space();
    const char* begin = p_;
    while (p_ != end_ && !is_field_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  template <typename UInt>
  bool unsigned_field(UInt& out) {
    std::uint64_t value = 0;
    if (!skip_space() || !digits(value) ||
        value > std::numeric_limits<UInt>::max()) {
      return false;
    }
    out = static_cast<UInt>(value);
    return true;
  }

  template <typename Int>
  bool signed_field(Int& out) {
    if (!skip_space()) return false;
    const bool negative = *p_ == '-';
    if (negative) ++p_;
    std::uint64_t magnitude = 0;
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
    if (!digits(magnitude) || magnitude > kMax + (negative ? 1 : 0)) {
      return false;
    }
    // Two's-complement wrap maps the magnitude 2^(N-1) onto Int's minimum.
    out = static_cast<Int>(negative ? std::uint64_t{0} - magnitude
                                    : magnitude);
    return true;
  }

  /// Enum fields (protocol, removal reason) are logged as an int and cast.
  template <typename Enum>
  bool enum_field(Enum& out) {
    int value = 0;
    if (!signed_field(value)) return false;
    out = static_cast<Enum>(value);
    return true;
  }

  template <typename Tag>
  bool id_field(Id<Tag>& out) {
    return unsigned_field(out.value);
  }

  /// Dotted quad, each octet at most 255 (Ipv4::parse's rules).
  bool ip(Ipv4& out) {
    if (!skip_space()) return false;
    std::uint32_t raw = 0;
    for (int octet = 0; octet < 4; ++octet) {
      if (octet > 0) {
        if (p_ == end_ || *p_ != '.') return false;
        ++p_;
      }
      if (p_ == end_ || digit_of(*p_) > 9) return false;
      unsigned value = 0;
      do {
        value = value * 10 + digit_of(*p_++);
        if (value > 255) return false;
      } while (p_ != end_ && digit_of(*p_) <= 9);
      raw = raw << 8 | value;
    }
    out = Ipv4{raw};
    return at_token_end();
  }

  bool key(FlowKey& k) {
    return ip(k.src_ip) && unsigned_field(k.src_port) && ip(k.dst_ip) &&
           unsigned_field(k.dst_port) && enum_field(k.proto);
  }

  /// Six match slots into a default (all-wildcard) `m`. A lone '-' leaves
  /// the field absent; anything else must decode, so a garbled field
  /// rejects the line rather than silently widening to a wildcard.
  bool match(FlowMatch& m) {
    return slot(m.src_ip, [this](Ipv4& v) { return ip(v); }) &&
           slot(m.src_port, [this](auto& v) { return unsigned_field(v); }) &&
           slot(m.dst_ip, [this](Ipv4& v) { return ip(v); }) &&
           slot(m.dst_port, [this](auto& v) { return unsigned_field(v); }) &&
           slot(m.proto, [this](Proto& v) { return enum_field(v); }) &&
           slot(m.in_port, [this](PortId& v) { return id_field(v); });
  }

 private:
  /// Moves to the next token's first byte; false at end of line.
  bool skip_space() {
    while (p_ != end_ && is_field_space(*p_)) ++p_;
    return p_ != end_;
  }

  [[nodiscard]] bool at_token_end() const {
    return p_ == end_ || is_field_space(*p_);
  }

  /// One or more decimal digits making up the rest of the token, with an
  /// inline uint64 overflow check.
  bool digits(std::uint64_t& out) {
    constexpr std::uint64_t kCutoff =
        std::numeric_limits<std::uint64_t>::max() / 10;
    constexpr unsigned kLastDigit =
        std::numeric_limits<std::uint64_t>::max() % 10;
    if (p_ == end_ || digit_of(*p_) > 9) return false;
    std::uint64_t value = 0;
    do {
      const unsigned d = digit_of(*p_++);
      if (value > kCutoff || (value == kCutoff && d > kLastDigit)) {
        return false;
      }
      value = value * 10 + d;
    } while (p_ != end_ && digit_of(*p_) <= 9);
    out = value;
    return at_token_end();
  }

  template <typename T, typename Decode>
  bool slot(std::optional<T>& out, Decode decode) {
    if (!skip_space()) return false;
    if (*p_ == '-' && (p_ + 1 == end_ || is_field_space(p_[1]))) {
      ++p_;
      return true;
    }
    T value{};
    if (!decode(value)) return false;
    out = value;
    return true;
  }

  const char* p_;
  const char* end_;
};

/// Decodes the fields after `<kind> <ts> <ctrl>` into a fresh alternative.
bool parse_body(std::string_view kind, LineCursor& c, ControlMessage& msg) {
  if (kind == "PIN") {
    auto& pin = msg.emplace<PacketIn>();
    return c.id_field(pin.sw) && c.id_field(pin.in_port) && c.key(pin.key) &&
           c.unsigned_field(pin.flow_uid);
  }
  if (kind == "FMOD") {
    auto& fm = msg.emplace<FlowMod>();
    return c.id_field(fm.sw) && c.id_field(fm.out_port) &&
           c.signed_field(fm.idle_timeout) &&
           c.signed_field(fm.hard_timeout) && c.match(fm.match) &&
           c.key(fm.key) && c.unsigned_field(fm.flow_uid);
  }
  if (kind == "POUT") {
    auto& po = msg.emplace<PacketOut>();
    return c.id_field(po.sw) && c.id_field(po.out_port) && c.key(po.key) &&
           c.unsigned_field(po.flow_uid);
  }
  if (kind == "FREM") {
    auto& fr = msg.emplace<FlowRemoved>();
    return c.id_field(fr.sw) && c.enum_field(fr.reason) &&
           c.signed_field(fr.duration) && c.unsigned_field(fr.byte_count) &&
           c.unsigned_field(fr.packet_count) && c.match(fr.match) &&
           c.key(fr.key);
  }
  if (kind == "STAT") {
    auto& st = msg.emplace<FlowStatsReply>();
    return c.id_field(st.sw) && c.signed_field(st.age) &&
           c.unsigned_field(st.byte_count) &&
           c.unsigned_field(st.packet_count) && c.match(st.match) &&
           c.key(st.key);
  }
  if (kind == "ECHO") return c.id_field(msg.emplace<EchoReply>().sw);
  return false;  // Unknown record type.
}

/// Calls `fn(line)` on each '\n'-separated line of `text` that is not a
/// comment or blank; returns false as soon as `fn` does.
template <typename Fn>
bool for_each_record_line(std::string_view text, Fn&& fn) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* eol = nl != nullptr ? nl : end;
    const std::string_view line(p, static_cast<std::size_t>(eol - p));
    p = nl != nullptr ? nl + 1 : end;
    if (!is_comment_or_blank(line) && !fn(line)) return false;
  }
  return true;
}

void append_event(std::string& out, const ControlEvent& event) {
  const std::string prefix = std::to_string(event.ts) + ' ' +
                             std::to_string(event.controller.value) + ' ';
  if (const auto* pin = std::get_if<PacketIn>(&event.msg)) {
    out += "PIN " + prefix + std::to_string(pin->sw.value) + ' ' +
           std::to_string(pin->in_port.value) + ' ';
    append_key(out, pin->key);
    out += ' ' + std::to_string(pin->flow_uid) + '\n';
  } else if (const auto* fm = std::get_if<FlowMod>(&event.msg)) {
    out += "FMOD " + prefix + std::to_string(fm->sw.value) + ' ' +
           std::to_string(fm->out_port.value) + ' ' +
           std::to_string(fm->idle_timeout) + ' ' +
           std::to_string(fm->hard_timeout) + ' ';
    append_match(out, fm->match);
    out += ' ';
    append_key(out, fm->key);
    out += ' ' + std::to_string(fm->flow_uid) + '\n';
  } else if (const auto* po = std::get_if<PacketOut>(&event.msg)) {
    out += "POUT " + prefix + std::to_string(po->sw.value) + ' ' +
           std::to_string(po->out_port.value) + ' ';
    append_key(out, po->key);
    out += ' ' + std::to_string(po->flow_uid) + '\n';
  } else if (const auto* fr = std::get_if<FlowRemoved>(&event.msg)) {
    out += "FREM " + prefix + std::to_string(fr->sw.value) + ' ' +
           std::to_string(static_cast<int>(fr->reason)) + ' ' +
           std::to_string(fr->duration) + ' ' +
           std::to_string(fr->byte_count) + ' ' +
           std::to_string(fr->packet_count) + ' ';
    append_match(out, fr->match);
    out += ' ';
    append_key(out, fr->key);
    out += '\n';
  } else if (const auto* echo = std::get_if<EchoReply>(&event.msg)) {
    out += "ECHO " + prefix + std::to_string(echo->sw.value) + '\n';
  } else if (const auto* st = std::get_if<FlowStatsReply>(&event.msg)) {
    out += "STAT " + prefix + std::to_string(st->sw.value) + ' ' +
           std::to_string(st->age) + ' ' +
           std::to_string(st->byte_count) + ' ' +
           std::to_string(st->packet_count) + ' ';
    append_match(out, st->match);
    out += ' ';
    append_key(out, st->key);
    out += '\n';
  }
}

/// Lines in `text` plus one: an upper bound on its record count (headers
/// and blanks over-reserve slightly), so a parse reserves once instead of
/// growing log2(n) times. memchr skips whole words between newlines.
std::size_t line_count(std::string_view text) {
  std::size_t lines = 1;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    if (nl == nullptr) break;
    ++lines;
    p = static_cast<const char*>(nl) + 1;
  }
  return lines;
}

}  // namespace

std::string serialize_event(const ControlEvent& event) {
  std::string out;
  append_event(out, event);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string serialize(const std::vector<ControlEvent>& events) {
  std::string out;
  out += "# flowdiff control log v1\n";
  for (const auto& event : events) append_event(out, event);
  return out;
}

std::string serialize(const ControlLog& log) { return serialize(log.events()); }

bool parse_event_line(std::string_view line, ControlEvent& event) {
  LineCursor c(line);
  const std::string_view kind = c.word();
  return c.signed_field(event.ts) && c.id_field(event.controller) &&
         parse_body(kind, c, event.msg);
}

bool parse_control_events(std::string_view text,
                          std::vector<ControlEvent>& out) {
  const std::size_t mark = out.size();
  const bool ok = for_each_record_line(text, [&out](std::string_view line) {
    return parse_event_line(line, out.emplace_back());
  });
  if (!ok) out.resize(mark);
  return ok;
}

std::optional<std::vector<ControlEvent>> parse_control_events(
    std::string_view text) {
  std::vector<ControlEvent> events;
  events.reserve(line_count(text));
  if (!parse_control_events(text, events)) return std::nullopt;
  return events;
}

std::optional<ControlLog> parse_control_log(std::string_view text) {
  auto events = parse_control_events(text);
  if (!events) return std::nullopt;
  return ControlLog(std::move(*events));
}

std::string serialize(const FlowSequence& flows) {
  std::string out;
  out += "# flowdiff flow sequence v1\n";
  for (const auto& tf : flows) {
    out += "FLOW " + std::to_string(tf.ts) + ' ';
    append_key(out, tf.key);
    out += '\n';
  }
  return out;
}

std::optional<FlowSequence> parse_flow_sequence(std::string_view text) {
  FlowSequence flows;
  flows.reserve(line_count(text));
  const bool ok = for_each_record_line(text, [&flows](std::string_view line) {
    LineCursor c(line);
    TimedFlow& flow = flows.emplace_back();
    return c.word() == "FLOW" && c.signed_field(flow.ts) && c.key(flow.key);
  });
  if (!ok) return std::nullopt;
  return flows;
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

std::optional<std::string> read_file(const std::string& path) {
  // O_NONBLOCK: opening a FIFO that has no writer must fail the regular-
  // file check below instead of blocking; it does not affect regular files.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> text;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    // One byte of headroom past the stat size, so the read that meets EOF
    // needs no regrowth; a file longer than its stat size (procfs reports
    // 0, or a writer appended since) grows the buffer until EOF.
    text.emplace(static_cast<std::size_t>(st.st_size) + 1, '\0');
    std::size_t used = 0;
    for (;;) {
      if (used == text->size()) {
        text->resize(std::max<std::size_t>(2 * used, 4096));
      }
      const ssize_t n = ::read(fd, text->data() + used, text->size() - used);
      if (n > 0) {
        used += static_cast<std::size_t>(n);
      } else if (n == 0) {
        text->resize(used);
        break;
      } else if (errno != EINTR) {
        text.reset();
        break;
      }
    }
  }
  ::close(fd);
  return text;
}

}  // namespace flowdiff::of
