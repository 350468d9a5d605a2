#include "experiment/corpus.h"

#include <charconv>
#include <set>
#include <sstream>

#include "flowdiff/monitor.h"
#include "openflow/log_io.h"

namespace flowdiff::exp {
namespace {

/// Service IPs as a stable comma list; "-" when the deployment has none.
std::string render_services(const std::set<Ipv4>& services) {
  if (services.empty()) return "-";
  std::string out;
  for (const Ipv4 ip : services) {
    if (!out.empty()) out += ',';
    out += ip.to_string();
  }
  return out;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::string corpus_header(const core::MonitorOptions& options) {
  std::ostringstream out;
  out << "# corpus window_us=" << options.window
      << " sanitize=" << (options.sanitize ? 1 : 0)
      << " lateness_us=" << options.monitor_config().ingest.lateness_horizon
      << " rolling=" << (options.rolling_baseline ? 1 : 0)
      << " services=" << render_services(options.services) << "\n";
  return out.str();
}

std::string serialize_corpus_case(
    const core::MonitorOptions& options,
    const std::vector<of::ControlEvent>& events) {
  return corpus_header(options) + of::serialize(events);
}

std::optional<CorpusCase> parse_corpus_case(std::string_view text) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos) return std::nullopt;
  std::string_view header = text.substr(0, eol);
  constexpr std::string_view kPrefix = "# corpus ";
  if (!header.starts_with(kPrefix)) return std::nullopt;
  header.remove_prefix(kPrefix.size());

  CorpusCase out;
  std::istringstream fields{std::string(header)};
  std::string field;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "window_us") {
      const auto parsed = parse_int(value);
      if (!parsed) return std::nullopt;
      out.options.window = *parsed;
    } else if (key == "sanitize") {
      out.options.sanitize = value == "1";
    } else if (key == "lateness_us") {
      const auto parsed = parse_int(value);
      if (!parsed) return std::nullopt;
      if (*parsed != ingest::SanitizerConfig{}.lateness_horizon) {
        out.options.lateness = *parsed;
      }
    } else if (key == "rolling") {
      out.options.rolling_baseline = value == "1";
    } else if (key == "services") {
      if (value == "-") continue;
      std::istringstream ips(value);
      std::string ip_text;
      while (std::getline(ips, ip_text, ',')) {
        const auto ip = Ipv4::parse(ip_text);
        if (!ip) return std::nullopt;
        out.options.services.insert(*ip);
      }
    }
    // Unknown keys are ignored so old binaries can replay newer corpora.
  }
  if (out.options.validate()) return std::nullopt;

  auto events = of::parse_control_events(text.substr(eol + 1));
  if (!events) return std::nullopt;
  out.events = std::move(*events);
  return out;
}

std::string replay_corpus_case(const CorpusCase& corpus_case) {
  core::SlidingMonitor monitor(corpus_case.options);
  monitor.feed(corpus_case.events);
  monitor.flush();
  return core::render_monitor_transcript(monitor);
}

std::string replay_corpus_provenance(const CorpusCase& corpus_case) {
  core::SlidingMonitor monitor(corpus_case.options);
  monitor.feed(corpus_case.events);
  monitor.flush();
  return core::render_provenance_transcript(monitor);
}

}  // namespace flowdiff::exp
