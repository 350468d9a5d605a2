#include "experiment/corpus.h"

#include <charconv>
#include <set>
#include <sstream>

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

std::string corpus_header(const core::MonitorConfig& config) {
  std::ostringstream out;
  out << "# corpus window_us=" << config.window
      << " sanitize=" << (config.sanitize ? 1 : 0)
      << " lateness_us=" << config.ingest.lateness_horizon
      << " rolling=" << (config.rolling_baseline ? 1 : 0)
      << " services=" << render_services(config.flowdiff.model.special_nodes)
      << "\n";
  return out.str();
}

std::string serialize_corpus_case(
    const core::MonitorConfig& config,
    const std::vector<of::ControlEvent>& events) {
  return corpus_header(config) + of::serialize(events);
}

std::optional<CorpusCase> parse_corpus_case(std::string_view text) {
  const std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos) return std::nullopt;
  std::string_view header = text.substr(0, eol);
  constexpr std::string_view kPrefix = "# corpus ";
  if (!header.starts_with(kPrefix)) return std::nullopt;
  header.remove_prefix(kPrefix.size());

  CorpusCase out;
  out.config.rolling_baseline = false;
  std::set<Ipv4> services;
  std::istringstream fields{std::string(header)};
  std::string field;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "window_us") {
      const auto parsed = parse_int(value);
      if (!parsed || *parsed <= 0) return std::nullopt;
      out.config.window = *parsed;
    } else if (key == "sanitize") {
      out.config.sanitize = value == "1";
    } else if (key == "lateness_us") {
      const auto parsed = parse_int(value);
      if (!parsed || *parsed <= 0) return std::nullopt;
      out.config.ingest.lateness_horizon = *parsed;
    } else if (key == "rolling") {
      out.config.rolling_baseline = value == "1";
    } else if (key == "services") {
      if (value == "-") continue;
      std::istringstream ips(value);
      std::string ip_text;
      while (std::getline(ips, ip_text, ',')) {
        const auto ip = Ipv4::parse(ip_text);
        if (!ip) return std::nullopt;
        services.insert(*ip);
      }
    }
    // Unknown keys are ignored so old binaries can replay newer corpora.
  }
  out.config.flowdiff.model.special_nodes = std::move(services);

  auto events = of::parse_control_events(text.substr(eol + 1));
  if (!events) return std::nullopt;
  out.events = std::move(*events);
  return out;
}

std::string replay_corpus_case(const CorpusCase& corpus_case) {
  core::SlidingMonitor monitor(corpus_case.config);
  monitor.feed(corpus_case.events);
  monitor.flush();
  return core::render_monitor_transcript(monitor);
}

std::string replay_corpus_provenance(const CorpusCase& corpus_case) {
  core::SlidingMonitor monitor(corpus_case.config);
  monitor.feed(corpus_case.events);
  monitor.flush();
  return core::render_provenance_transcript(monitor);
}

}  // namespace flowdiff::exp
