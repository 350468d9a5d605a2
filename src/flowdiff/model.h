// BehaviorModel: everything FlowDiff knows about a data center over one
// logging interval — per-group application signatures, infrastructure
// signatures, and per-signature stability flags.
//
// Stability (paper SectionIII-B): the log is partitioned into segments and a
// signature component is only trusted for diffing if it is consistent
// across segments; e.g. component interaction under non-uniform load
// balancing is excluded to avoid false positives.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "flowdiff/app_groups.h"
#include "flowdiff/app_signatures.h"
#include "flowdiff/infra_signatures.h"

namespace flowdiff::core {

struct ModelConfig {
  AppSignatureConfig app;
  std::set<Ipv4> special_nodes;  ///< Domain knowledge: service IPs.
  int stability_segments = 4;
  double ci_stability_chi2 = 0.3;
  double dd_stability_ms = 25.0;   ///< Peak wander tolerated across segments.
  /// Max histogram-shape wobble (pairs-per-in-flow delta) tolerated across
  /// segments; noisier pairs (reuse-hidden dependencies) are excluded.
  double dd_shape_stability = 0.2;
  /// Minimum visible out-flows per in-flow for the delay *shape* to be
  /// compared; below this, reuse hides most of the dependency.
  double dd_visibility_ratio = 0.7;
  double pc_stability_sd = 0.25;
};

struct GroupModel {
  GroupSignatures sig;
  std::set<Ipv4> unstable_ci_nodes;
  std::set<EdgePair> unstable_dd_pairs;
  /// Pairs whose delay *shape* cannot be trusted (dependency mostly hidden
  /// by connection reuse, or shape wobbles across segments). Their peak is
  /// still compared — Fig. 10 shows the peak survives reuse.
  std::set<EdgePair> shape_unstable_dd_pairs;
  std::set<EdgePair> unstable_pc_pairs;
};

struct BehaviorModel {
  SimTime begin = 0;
  SimTime end = 0;
  std::vector<GroupModel> groups;
  InfraSignatures infra;
  of::FlowSequence flow_starts;  ///< Kept for task detection/validation.
};

/// Builds BehaviorModels from control logs, from scratch. It is the oracle
/// for IncrementalModeler: the identity tests compare against it, the
/// monitor runs it with `incremental = false`, and FlowDiff::model falls
/// back to it where the incremental result cannot be exact.
class Modeler {
 public:
  explicit Modeler(ModelConfig config);

  [[nodiscard]] BehaviorModel build(const of::ControlLog& log) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
};

/// Index of the group in `model` best matching `members` (by overlap);
/// -1 when nothing overlaps.
int match_group(const BehaviorModel& model, const std::set<Ipv4>& members);

/// Judges each signature component of `group` against the per-segment
/// sub-models and fills the unstable sets. Reads only CI/DD/PC of the
/// segments. Shared by the from-scratch build and the incremental
/// finalize, which reconstructs the same per-segment inputs from its
/// aggregates — keep the read set in sync with both producers.
void analyze_group_stability(const std::vector<GroupSignatures>& per_segment,
                             const ModelConfig& config, GroupModel& group);

/// Deterministic, lossless dump of every BehaviorModel field (doubles in
/// hexfloat). Two models are bit-identical iff their descriptions are
/// byte-equal — the comparator the incremental-vs-oracle tests use.
std::string describe_model(const BehaviorModel& model);

}  // namespace flowdiff::core
