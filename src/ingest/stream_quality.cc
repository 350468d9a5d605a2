#include "ingest/stream_quality.h"

#include "util/table.h"

namespace flowdiff::ingest {

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string pct(double rate) { return fmt_double(rate * 100.0, 1) + "%"; }

}  // namespace

double StreamQuality::dup_rate() const { return ratio(duplicates, fed); }

double StreamQuality::reorder_rate() const { return ratio(reordered, fed); }

double StreamQuality::drop_rate() const { return ratio(late_dropped, fed); }

double StreamQuality::truncation_rate() const { return ratio(truncated, fed); }

double StreamQuality::corruption_rate() const {
  return ratio(duplicates + late_dropped + truncated, fed);
}

double StreamQuality::estimated_loss_rate() const {
  const std::uint64_t expected =
      2 * pairs_matched + orphan_packet_ins + orphan_flow_mods;
  return ratio(orphan_packet_ins + orphan_flow_mods, expected);
}

double StreamQuality::effective_corruption_rate() const {
  return corruption_rate() + estimated_loss_rate();
}

std::string StreamQuality::summary() const {
  return "dup " + pct(dup_rate()) + " reord " + pct(reorder_rate()) +
         " late " + pct(drop_rate()) + " trunc " + pct(truncation_rate()) +
         " est-loss " + pct(estimated_loss_rate());
}

std::string StreamQuality::json() const {
  return "{\"fed\":" + std::to_string(fed) +
         ",\"kept\":" + std::to_string(kept) +
         ",\"duplicates\":" + std::to_string(duplicates) +
         ",\"reordered\":" + std::to_string(reordered) +
         ",\"late_dropped\":" + std::to_string(late_dropped) +
         ",\"truncated\":" + std::to_string(truncated) +
         ",\"pairs_matched\":" + std::to_string(pairs_matched) +
         ",\"orphan_packet_ins\":" + std::to_string(orphan_packet_ins) +
         ",\"orphan_flow_mods\":" + std::to_string(orphan_flow_mods) + "}";
}

StreamQuality& StreamQuality::operator+=(const StreamQuality& other) {
  fed += other.fed;
  kept += other.kept;
  duplicates += other.duplicates;
  reordered += other.reordered;
  late_dropped += other.late_dropped;
  truncated += other.truncated;
  pairs_matched += other.pairs_matched;
  orphan_packet_ins += other.orphan_packet_ins;
  orphan_flow_mods += other.orphan_flow_mods;
  return *this;
}

}  // namespace flowdiff::ingest
