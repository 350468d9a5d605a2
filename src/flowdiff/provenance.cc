#include "flowdiff/provenance.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "obs/export.h"
#include "util/table.h"
#include "util/time.h"

namespace flowdiff::core {

namespace {

using obs::json_number;
using obs::JsonCursor;
using obs::json_string;

std::optional<SignatureKind> kind_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kSignatureKindCount; ++i) {
    const auto kind = static_cast<SignatureKind>(i);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<Confidence> confidence_from_string(std::string_view name) {
  if (name == "high") return Confidence::kHigh;
  if (name == "medium") return Confidence::kMedium;
  if (name == "low") return Confidence::kLow;
  return std::nullopt;
}

/// "53.2%" with one decimal, for the human renders only.
std::string pct(double share) { return fmt_double(share * 100.0, 1) + "%"; }

/// Accumulates one group (unknown or suppressed) of changes into ranked
/// FamilyContribution entries appended to `out`.
void accumulate_group(const std::vector<Change>& changes, bool suppressed,
                      std::size_t top_k,
                      std::vector<FamilyContribution>* out) {
  struct Accum {
    std::size_t changes = 0;
    double score = 0.0;
    Confidence confidence = Confidence::kHigh;
    std::map<std::string, double> weights;
  };
  std::map<SignatureKind, Accum> families;
  for (const Change& change : changes) {
    Accum& acc = families[change.kind];
    ++acc.changes;
    acc.score += change.magnitude;
    // Worst grade wins: one untrusted change taints the family entry.
    acc.confidence = std::max(acc.confidence, change.confidence);
    if (change.components.empty()) {
      acc.weights["(unattributed)"] += change.magnitude;
      continue;
    }
    // Split the change's magnitude evenly across the components it names,
    // so contributor shares within a family sum to (at most) 100%.
    const double split =
        change.magnitude / static_cast<double>(change.components.size());
    for (const ComponentRef& component : change.components) {
      acc.weights[component.label] += split;
    }
  }

  double total = 0.0;
  for (const auto& [kind, acc] : families) total += acc.score;

  std::vector<FamilyContribution> entries;
  entries.reserve(families.size());
  for (const auto& [kind, acc] : families) {
    FamilyContribution fam;
    fam.kind = kind;
    fam.suppressed = suppressed;
    fam.changes = acc.changes;
    fam.score = acc.score;
    fam.share = total > 0.0 ? acc.score / total : 0.0;
    fam.confidence = acc.confidence;
    fam.top.reserve(acc.weights.size());
    for (const auto& [label, weight] : acc.weights) {
      fam.top.push_back(ProvenanceContributor{
          label, weight, acc.score > 0.0 ? weight / acc.score : 0.0});
    }
    std::sort(fam.top.begin(), fam.top.end(),
              [](const ProvenanceContributor& a,
                 const ProvenanceContributor& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.label < b.label;
              });
    if (fam.top.size() > top_k) fam.top.resize(top_k);
    entries.push_back(std::move(fam));
  }
  std::sort(entries.begin(), entries.end(),
            [](const FamilyContribution& a, const FamilyContribution& b) {
              if (a.score != b.score) return a.score > b.score;
              return std::strcmp(to_string(a.kind), to_string(b.kind)) < 0;
            });
  for (auto& fam : entries) out->push_back(std::move(fam));
}

// --- Parser for render_provenance_json's output ----------------------------

bool parse_u64(JsonCursor& p, std::uint64_t* out) {
  const auto v = p.number();
  if (!v || *v < 0.0) return false;
  *out = static_cast<std::uint64_t>(*v);
  return true;
}

bool parse_size(JsonCursor& p, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(p, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_quality(JsonCursor& p, ingest::StreamQuality* q) {
  if (!p.eat('{')) return false;
  if (!p.peek('}')) {
    do {
      const auto key = p.string();
      if (!key || !p.eat(':')) return false;
      std::uint64_t* slot = nullptr;
      if (*key == "fed") slot = &q->fed;
      else if (*key == "kept") slot = &q->kept;
      else if (*key == "duplicates") slot = &q->duplicates;
      else if (*key == "reordered") slot = &q->reordered;
      else if (*key == "late_dropped") slot = &q->late_dropped;
      else if (*key == "truncated") slot = &q->truncated;
      else if (*key == "pairs_matched") slot = &q->pairs_matched;
      else if (*key == "orphan_packet_ins") slot = &q->orphan_packet_ins;
      else if (*key == "orphan_flow_mods") slot = &q->orphan_flow_mods;
      if (slot == nullptr || !parse_u64(p, slot)) return false;
    } while (p.eat(','));
  }
  return p.eat('}');
}

bool parse_latency(JsonCursor& p, StageLatency* lat) {
  if (!p.eat('{')) return false;
  if (!p.peek('}')) {
    do {
      const auto key = p.string();
      if (!key || !p.eat(':')) return false;
      double* slot = nullptr;
      if (*key == "ingest") slot = &lat->ingest_ms;
      else if (*key == "model") slot = &lat->model_ms;
      else if (*key == "diff") slot = &lat->diff_ms;
      else if (*key == "decide") slot = &lat->decide_ms;
      else if (*key == "total") slot = &lat->total_ms;
      if (slot == nullptr) return false;
      const auto v = p.number();
      if (!v) return false;
      *slot = *v;
    } while (p.eat(','));
  }
  return p.eat('}');
}

bool parse_contributor(JsonCursor& p, ProvenanceContributor* c) {
  if (!p.eat('{')) return false;
  if (!p.peek('}')) {
    do {
      const auto key = p.string();
      if (!key || !p.eat(':')) return false;
      if (*key == "label") {
        const auto label = p.string();
        if (!label) return false;
        c->label = *label;
      } else if (*key == "weight" || *key == "share") {
        const auto v = p.number();
        if (!v) return false;
        (*key == "weight" ? c->weight : c->share) = *v;
      } else {
        return false;
      }
    } while (p.eat(','));
  }
  return p.eat('}');
}

bool parse_family(JsonCursor& p, FamilyContribution* fam) {
  if (!p.eat('{')) return false;
  if (!p.peek('}')) {
    do {
      const auto key = p.string();
      if (!key || !p.eat(':')) return false;
      if (*key == "family") {
        const auto name = p.string();
        if (!name) return false;
        const auto kind = kind_from_string(*name);
        if (!kind) return false;
        fam->kind = *kind;
      } else if (*key == "suppressed") {
        const auto v = p.boolean();
        if (!v) return false;
        fam->suppressed = *v;
      } else if (*key == "changes") {
        if (!parse_size(p, &fam->changes)) return false;
      } else if (*key == "score" || *key == "share") {
        const auto v = p.number();
        if (!v) return false;
        (*key == "score" ? fam->score : fam->share) = *v;
      } else if (*key == "confidence") {
        const auto name = p.string();
        if (!name) return false;
        const auto confidence = confidence_from_string(*name);
        if (!confidence) return false;
        fam->confidence = *confidence;
      } else if (*key == "top") {
        if (!p.eat('[')) return false;
        if (!p.peek(']')) {
          do {
            ProvenanceContributor c;
            if (!parse_contributor(p, &c)) return false;
            fam->top.push_back(std::move(c));
          } while (p.eat(','));
        }
        if (!p.eat(']')) return false;
      } else {
        return false;
      }
    } while (p.eat(','));
  }
  return p.eat('}');
}

bool parse_record(JsonCursor& p, ProvenanceRecord* rec) {
  if (!p.eat('{')) return false;
  if (!p.peek('}')) {
    do {
      const auto key = p.string();
      if (!key || !p.eat(':')) return false;
      if (*key == "id") {
        if (!parse_u64(p, &rec->id)) return false;
      } else if (*key == "window_index") {
        if (!parse_size(p, &rec->window_index)) return false;
      } else if (*key == "window_begin_us" || *key == "window_end_us") {
        const auto v = p.number();
        if (!v) return false;
        (*key == "window_begin_us" ? rec->window_begin : rec->window_end) =
            static_cast<SimTime>(*v);
      } else if (*key == "events") {
        if (!parse_size(p, &rec->events)) return false;
      } else if (*key == "alarmed") {
        const auto v = p.boolean();
        if (!v) return false;
        rec->alarmed = *v;
      } else if (*key == "verdict") {
        const auto v = p.string();
        if (!v) return false;
        rec->verdict = *v;
      } else if (*key == "changes") {
        if (!parse_size(p, &rec->changes)) return false;
      } else if (*key == "known") {
        if (!parse_size(p, &rec->known)) return false;
      } else if (*key == "unknown") {
        if (!parse_size(p, &rec->unknown)) return false;
      } else if (*key == "suppressed") {
        if (!parse_size(p, &rec->suppressed)) return false;
      } else if (*key == "families") {
        if (!p.eat('[')) return false;
        if (!p.peek(']')) {
          do {
            FamilyContribution fam;
            if (!parse_family(p, &fam)) return false;
            rec->families.push_back(std::move(fam));
          } while (p.eat(','));
        }
        if (!p.eat(']')) return false;
      } else if (*key == "quality") {
        if (!parse_quality(p, &rec->quality)) return false;
      } else if (*key == "latency_ms") {
        if (!parse_latency(p, &rec->latency)) return false;
      } else {
        return false;
      }
    } while (p.eat(','));
  }
  return p.eat('}');
}

}  // namespace

bool StageLatency::complete() const {
  // Every stage stamped non-negative and the end-to-end total covers the
  // stage sum (tolerance: the stamps are converted to double ms pairwise).
  if (ingest_ms < 0.0 || model_ms < 0.0 || diff_ms < 0.0 || decide_ms < 0.0 ||
      total_ms < 0.0) {
    return false;
  }
  const double sum = ingest_ms + model_ms + diff_ms + decide_ms;
  return total_ms + 0.5 >= sum;
}

ProvenanceRecord build_provenance(const DiffReport& report,
                                  std::size_t top_k) {
  if (top_k == 0) top_k = 1;
  ProvenanceRecord rec;
  rec.changes = report.change_count();
  rec.known = report.known.size();
  rec.unknown = report.unknown.size();
  rec.suppressed = report.suppressed.size();
  rec.quality = report.quality;
  accumulate_group(report.unknown, /*suppressed=*/false, top_k,
                   &rec.families);
  accumulate_group(report.suppressed, /*suppressed=*/true, top_k,
                   &rec.families);
  return rec;
}

std::string render_provenance_text(const ProvenanceRecord& rec,
                                   bool with_latency) {
  std::string out;
  out += "provenance #" + std::to_string(rec.id) + ": window " +
         std::to_string(rec.window_index) + " [" +
         fmt_double(to_seconds(rec.window_begin), 1) + "s, " +
         fmt_double(to_seconds(rec.window_end), 1) + "s) events=" +
         std::to_string(rec.events) + "\n";
  out += "verdict: " + rec.verdict + "\n";
  out += "changes: " + std::to_string(rec.changes) + " total, " +
         std::to_string(rec.known) + " known, " +
         std::to_string(rec.unknown) + " unknown, " +
         std::to_string(rec.suppressed) + " suppressed\n";
  out += rec.quality.degraded()
             ? "stream: DEGRADED (" + rec.quality.summary() + ")\n"
             : "stream: clean\n";
  for (const FamilyContribution& fam : rec.families) {
    out += "family ";
    out += to_string(fam.kind);
    if (fam.suppressed) out += " (suppressed)";
    out += ": " + std::to_string(fam.changes) + " change(s), score " +
           fmt_double(fam.score, 3) + ", " + pct(fam.share) +
           (fam.suppressed ? " of withheld evidence" : " of divergence") +
           ", confidence ";
    out += to_string(fam.confidence);
    out += "\n";
    for (const ProvenanceContributor& c : fam.top) {
      out += "  - " + c.label + ": weight " + fmt_double(c.weight, 3) +
             ", share " + pct(c.share) + "\n";
    }
  }
  if (with_latency) {
    out += "latency: ingest " + fmt_double(rec.latency.ingest_ms, 3) +
           "ms + model " + fmt_double(rec.latency.model_ms, 3) +
           "ms + diff " + fmt_double(rec.latency.diff_ms, 3) +
           "ms + decide " + fmt_double(rec.latency.decide_ms, 3) +
           "ms; event->verdict " + fmt_double(rec.latency.total_ms, 3) +
           "ms\n";
  }
  return out;
}

std::string render_provenance_json(const ProvenanceRecord& rec) {
  std::string out = "{\"id\": " + std::to_string(rec.id) +
                    ", \"window_index\": " + std::to_string(rec.window_index) +
                    ", \"window_begin_us\": " +
                    std::to_string(rec.window_begin) +
                    ", \"window_end_us\": " + std::to_string(rec.window_end) +
                    ", \"events\": " + std::to_string(rec.events) +
                    ", \"alarmed\": " + (rec.alarmed ? "true" : "false") +
                    ", \"verdict\": " + json_string(rec.verdict) +
                    ", \"changes\": " + std::to_string(rec.changes) +
                    ", \"known\": " + std::to_string(rec.known) +
                    ", \"unknown\": " + std::to_string(rec.unknown) +
                    ", \"suppressed\": " + std::to_string(rec.suppressed) +
                    ", \"families\": [";
  for (std::size_t i = 0; i < rec.families.size(); ++i) {
    const FamilyContribution& fam = rec.families[i];
    if (i > 0) out += ", ";
    out += "{\"family\": \"";
    out += to_string(fam.kind);
    out += "\", \"suppressed\": ";
    out += fam.suppressed ? "true" : "false";
    out += ", \"changes\": " + std::to_string(fam.changes) +
           ", \"score\": " + json_number(fam.score) +
           ", \"share\": " + json_number(fam.share) + ", \"confidence\": \"";
    out += to_string(fam.confidence);
    out += "\", \"top\": [";
    for (std::size_t j = 0; j < fam.top.size(); ++j) {
      const ProvenanceContributor& c = fam.top[j];
      if (j > 0) out += ", ";
      out += "{\"label\": " + json_string(c.label) +
             ", \"weight\": " + json_number(c.weight) +
             ", \"share\": " + json_number(c.share) + "}";
    }
    out += "]}";
  }
  out += "], \"quality\": " + rec.quality.json();
  out += ", \"latency_ms\": {\"ingest\": " +
         json_number(rec.latency.ingest_ms) +
         ", \"model\": " + json_number(rec.latency.model_ms) +
         ", \"diff\": " + json_number(rec.latency.diff_ms) +
         ", \"decide\": " + json_number(rec.latency.decide_ms) +
         ", \"total\": " + json_number(rec.latency.total_ms) + "}}";
  return out;
}

std::string render_provenance_collection_json(
    std::span<const std::shared_ptr<const ExplainedWindow>> entries,
    std::uint64_t dropped) {
  std::string out =
      "{\"provenance_dropped\": " + std::to_string(dropped) +
      ", \"records\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  " + render_provenance_json(entries[i]->provenance);
  }
  out += entries.empty() ? "]}\n" : "\n]}\n";
  return out;
}

std::optional<std::vector<ProvenanceRecord>> parse_provenance_json(
    std::string_view text) {
  JsonCursor p{text};
  std::vector<ProvenanceRecord> records;
  // Collection form? Peek past the opening brace at the first key.
  JsonCursor probe = p;
  if (!probe.eat('{')) return std::nullopt;
  const auto first_key = probe.string();
  if (first_key && *first_key == "provenance_dropped") {
    if (!p.eat('{')) return std::nullopt;
    if (!p.string() || !p.eat(':') || !p.number()) return std::nullopt;
    if (!p.eat(',')) return std::nullopt;
    const auto records_key = p.string();
    if (!records_key || *records_key != "records" || !p.eat(':') ||
        !p.eat('[')) {
      return std::nullopt;
    }
    if (!p.peek(']')) {
      do {
        ProvenanceRecord rec;
        if (!parse_record(p, &rec)) return std::nullopt;
        records.push_back(std::move(rec));
      } while (p.eat(','));
    }
    if (!p.eat(']') || !p.eat('}')) return std::nullopt;
    return records;
  }
  // Single-record form.
  ProvenanceRecord rec;
  if (!parse_record(p, &rec)) return std::nullopt;
  records.push_back(std::move(rec));
  return records;
}

}  // namespace flowdiff::core
