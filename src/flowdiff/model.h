// BehaviorModel: everything FlowDiff knows about a data center over one
// logging interval — per-group application signatures, infrastructure
// signatures, and per-signature stability flags.
//
// Stability (paper SectionIII-B): the log is partitioned into segments and a
// signature component is only trusted for diffing if it is consistent
// across segments; e.g. component interaction under non-uniform load
// balancing is excluded to avoid false positives. The tolerances of that
// test are constants in model.cc, shared by the from-scratch and the
// incremental modeler through analyze_group_stability.
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
  /// Service IPs, the facade's one service set (detection, validation).
  std::set<Ipv4> special_nodes;
  int stability_segments = 4;
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
/// for IncrementalModeler, which is bit-identical to it for every config:
/// the identity tests compare against it, and only the monitor's oracle
/// mode (`incremental = false`) runs it in src/.
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
                             GroupModel& group);

/// Deterministic, lossless dump of every BehaviorModel field (doubles in
/// hexfloat). Two models are bit-identical iff their descriptions are
/// byte-equal — the comparator the incremental-vs-oracle tests use.
std::string describe_model(const BehaviorModel& model);

}  // namespace flowdiff::core
