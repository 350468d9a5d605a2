#include "flowdiff/flow_token.h"

#include <gtest/gtest.h>

namespace flowdiff::core {
namespace {

const Ipv4 kVm(10, 0, 1, 1);
const Ipv4 kVm2(10, 0, 2, 1);
const Ipv4 kNfs(10, 0, 10, 1);

TEST(FlowTokenizer, UnmaskedKeepsLiteralIps) {
  FlowTokenizer tok(false, {kNfs});
  std::map<Ipv4, int> subjects;
  const auto t = tok.tokenize(
      of::FlowKey{kVm, kNfs, 47001, 2049, of::Proto::kTcp}, subjects);
  EXPECT_EQ(t.src.kind, TokenEndpoint::Kind::kLiteral);
  EXPECT_EQ(t.src.ip, kVm);
  EXPECT_TRUE(t.src.port_any);  // 47001 is ephemeral.
  EXPECT_EQ(t.dst.ip, kNfs);
  EXPECT_FALSE(t.dst.port_any);
  EXPECT_EQ(t.dst.port, 2049);
  EXPECT_TRUE(subjects.empty());
}

TEST(FlowTokenizer, MaskedSubjectsBecomeVariablesInOrder) {
  FlowTokenizer tok(true, {kNfs});
  std::map<Ipv4, int> subjects;
  const auto t1 = tok.tokenize(
      of::FlowKey{kVm, kNfs, 47001, 2049, of::Proto::kTcp}, subjects);
  const auto t2 = tok.tokenize(
      of::FlowKey{kVm, kVm2, 8002, 8002, of::Proto::kTcp}, subjects);
  EXPECT_EQ(t1.src.kind, TokenEndpoint::Kind::kVariable);
  EXPECT_EQ(t1.src.var, 0);
  EXPECT_EQ(t1.dst.kind, TokenEndpoint::Kind::kLiteral);  // Service stays.
  EXPECT_EQ(t2.src.var, 0);  // Same VM, same variable.
  EXPECT_EQ(t2.dst.var, 1);  // Second subject.
  EXPECT_EQ(subjects.size(), 2u);
}

TEST(FlowTokenizer, MaskedTokensFromDifferentVmsAreEqual) {
  // The generalization masking buys: the same task run on two different
  // VMs tokenizes identically.
  FlowTokenizer tok(true, {kNfs});
  std::map<Ipv4, int> run1;
  std::map<Ipv4, int> run2;
  const auto a = tok.tokenize(
      of::FlowKey{kVm, kNfs, 47001, 2049, of::Proto::kTcp}, run1);
  const auto b = tok.tokenize(
      of::FlowKey{kVm2, kNfs, 51234, 2049, of::Proto::kTcp}, run2);
  EXPECT_EQ(a, b);
}

TEST(FlowTokenizer, UnmaskedTokensFromDifferentVmsDiffer) {
  FlowTokenizer tok(false, {kNfs});
  std::map<Ipv4, int> subjects;
  const auto a = tok.tokenize(
      of::FlowKey{kVm, kNfs, 47001, 2049, of::Proto::kTcp}, subjects);
  const auto b = tok.tokenize(
      of::FlowKey{kVm2, kNfs, 51234, 2049, of::Proto::kTcp}, subjects);
  EXPECT_NE(a, b);
}

TEST(FlowTokenizer, WellKnownPortsStayLiteral) {
  FlowTokenizer tok(true, {kNfs});
  std::map<Ipv4, int> subjects;
  const auto t = tok.tokenize(
      of::FlowKey{kVm, kVm2, 8002, 8002, of::Proto::kTcp}, subjects);
  EXPECT_FALSE(t.src.port_any);
  EXPECT_EQ(t.src.port, 8002);
  EXPECT_FALSE(t.dst.port_any);
}

TEST(FlowToken, ToStringRendersPaperNotation) {
  FlowTokenizer tok(true, {kNfs});
  std::map<Ipv4, int> subjects;
  const auto t = tok.tokenize(
      of::FlowKey{kVm, kNfs, 47001, 2049, of::Proto::kTcp}, subjects);
  EXPECT_EQ(t.to_string(), "#1:*->10.0.10.1:2049/tcp");
}

TEST(FlowToken, OrderingIsTotal) {
  FlowTokenizer tok(true, {kNfs});
  std::map<Ipv4, int> subjects;
  const auto a = tok.tokenize(
      of::FlowKey{kVm, kNfs, 47001, 2049, of::Proto::kTcp}, subjects);
  const auto b = tok.tokenize(
      of::FlowKey{kNfs, kVm, 2049, 47001, of::Proto::kTcp}, subjects);
  EXPECT_TRUE((a < b) != (b < a) || a == b);
}

}  // namespace
}  // namespace flowdiff::core
