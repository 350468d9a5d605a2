#include "flowdiff/validate.h"

#include <gtest/gtest.h>

namespace flowdiff::core {
namespace {

const Ipv4 kVm(10, 0, 1, 1);
const Ipv4 kHost(10, 0, 2, 1);
const Ipv4 kNfs(10, 0, 10, 1);

Change cg_change(std::vector<Ipv4> ips, SimTime when) {
  Change c;
  c.kind = SignatureKind::kCg;
  c.description = "new edge";
  ComponentRef ref;
  ref.label = "edge";
  ref.ips = std::move(ips);
  c.components = {ref};
  c.approx_time = when;
  return c;
}

TaskOccurrence migration(SimTime begin, SimTime end) {
  TaskOccurrence t;
  t.task = "vm_migration";
  t.begin = begin;
  t.end = end;
  t.involved = {kVm, kHost, kNfs};
  return t;
}

const std::set<Ipv4> kServices{kNfs};

TEST(Validate, TaskExplainsMatchingChange) {
  const auto result = validate_changes(
      {cg_change({kVm, kHost}, 10 * kSecond)},
      {migration(9 * kSecond, 12 * kSecond)}, kServices);
  ASSERT_EQ(result.known.size(), 1u);
  EXPECT_TRUE(result.unknown.empty());
  EXPECT_NE(result.explanations[0].find("vm_migration"), std::string::npos);
}

TEST(Validate, ServiceIpsNeedNotBeInvolved) {
  TaskOccurrence task = migration(9 * kSecond, 12 * kSecond);
  task.involved = {kVm, kHost};  // NFS not listed.
  const auto result = validate_changes(
      {cg_change({kVm, kNfs}, 10 * kSecond)}, {task}, kServices);
  EXPECT_EQ(result.known.size(), 1u);
}

TEST(Validate, UninvolvedHostStaysUnknown) {
  const Ipv4 intruder(10, 0, 9, 9);
  const auto result = validate_changes(
      {cg_change({intruder, kHost}, 10 * kSecond)},
      {migration(9 * kSecond, 12 * kSecond)}, kServices);
  EXPECT_TRUE(result.known.empty());
  ASSERT_EQ(result.unknown.size(), 1u);
}

TEST(Validate, TimeWindowMatters) {
  const auto late = validate_changes(
      {cg_change({kVm, kHost}, 60 * kSecond)},
      {migration(9 * kSecond, 12 * kSecond)}, kServices);
  EXPECT_TRUE(late.known.empty());

  // Inside the slack window: explained.
  const auto near = validate_changes(
      {cg_change({kVm, kHost}, 15 * kSecond)},
      {migration(9 * kSecond, 12 * kSecond)}, kServices);
  EXPECT_EQ(near.known.size(), 1u);
}

TEST(Validate, ChangeWithoutTimestampValidatedByComponentsOnly) {
  const auto result = validate_changes(
      {cg_change({kVm, kHost}, -1)},
      {migration(9 * kSecond, 12 * kSecond)}, kServices);
  EXPECT_EQ(result.known.size(), 1u);
}

TEST(Validate, PerformanceChangesAreNeverTaskExplained) {
  Change dd;
  dd.kind = SignatureKind::kDd;
  dd.description = "delay shift";
  ComponentRef ref;
  ref.ips = {kVm, kHost};
  dd.components = {ref};
  dd.approx_time = 10 * kSecond;
  const auto result = validate_changes(
      {dd}, {migration(9 * kSecond, 12 * kSecond)}, kServices);
  EXPECT_TRUE(result.known.empty());
  EXPECT_EQ(result.unknown.size(), 1u);
}

TEST(Validate, NoTasksMeansEverythingUnknown) {
  const auto result =
      validate_changes({cg_change({kVm, kHost}, 10 * kSecond)}, {}, kServices);
  EXPECT_TRUE(result.known.empty());
  EXPECT_EQ(result.unknown.size(), 1u);
}

TEST(Validate, MixedChangesSplitCorrectly) {
  const Ipv4 intruder(10, 0, 9, 9);
  const auto result = validate_changes(
      {cg_change({kVm, kHost}, 10 * kSecond),
       cg_change({intruder, kHost}, 11 * kSecond)},
      {migration(9 * kSecond, 12 * kSecond)}, kServices);
  EXPECT_EQ(result.known.size(), 1u);
  EXPECT_EQ(result.unknown.size(), 1u);
  EXPECT_EQ(result.explanations.size(), result.known.size());
}

}  // namespace
}  // namespace flowdiff::core
