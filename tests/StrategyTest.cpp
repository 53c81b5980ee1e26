//===- StrategyTest.cpp - Tests for search strategies and multi-trace ---------===//

#include "tracer/QueryDriver.h"

#include "escape/Escape.h"
#include "ir/Parser.h"

#include "gtest/gtest.h"

namespace {

using namespace optabs;
using namespace optabs::ir;
using tracer::QueryDriver;
using tracer::SearchStrategy;
using tracer::TracerOptions;
using tracer::Verdict;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

// Needs both sites local; a third site is irrelevant.
const char *ChainSrc = R"(
  proc main {
    u = new h1;
    v = new h2;
    w = new h3;
    v.f = u;
    check(u);
  }
)";

const char *EscapedSrc = R"(
  global g;
  proc main { u = new h1; g = u; check(u); }
)";

// A 3-way confuser: proving needs all three sites local; the failure has
// three independent causes, so multi-trace learning converges faster.
const char *ConfuserSrc = R"(
  proc main {
    choice { v = new h1; } or { v = new h2; } or { v = new h3; }
    check(v);
  }
)";

TEST(Strategy, EliminateCurrentIsEventuallyOptimal) {
  Program P = parse(ChainSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.Strategy = "eliminate-current";
  // 2^3 family: feasible to exhaust
  Options.Cfg.Execution.MaxItersPerQuery = 200;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[0].CheapestCost, 2u); // still minimum-cost
  // But it had to enumerate: strictly more iterations than TRACER's 3.
  EXPECT_GT(Outcomes[0].Iterations, 3u);
}

TEST(Strategy, EliminateCurrentProvesImpossibilityByExhaustion) {
  Program P = parse(EscapedSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.Strategy = "eliminate-current";
  Options.Cfg.Execution.MaxItersPerQuery = 10; // 2^1 family
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
  EXPECT_EQ(Outcomes[0].Iterations, 2u); // both abstractions tried
}

TEST(Strategy, EliminateCurrentExhaustsBudgetOnLargerFamilies) {
  Program P = parse(ConfuserSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.Strategy = "eliminate-current";
  // needs 1+3+3 = 7 runs up to cost 2
  Options.Cfg.Execution.MaxItersPerQuery = 5;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
}

TEST(Strategy, GreedyGrowProvesButNotMinimally) {
  Program P = parse(ChainSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.Strategy = "greedy-grow";
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  // Whatever it found must actually be >= the optimum (2 L-sites).
  EXPECT_GE(Outcomes[0].CheapestCost, 2u);
}

TEST(Strategy, GreedyGrowCannotConcludeImpossibility) {
  Program P = parse(EscapedSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.Strategy = "greedy-grow";
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Unresolved);
  // It stalled: no new blame after at most a couple of iterations.
  EXPECT_LE(Outcomes[0].Iterations, 3u);
}

TEST(Strategy, NamesAreStable) {
  EXPECT_STREQ(tracer::strategyName(SearchStrategy::Tracer), "tracer");
  EXPECT_STREQ(tracer::strategyName(SearchStrategy::EliminateCurrent),
               "eliminate-current");
  EXPECT_STREQ(tracer::strategyName(SearchStrategy::GreedyGrow),
               "greedy-grow");
}

struct MultiTraceCase {
  unsigned TracesPerIteration;
};

class MultiTraceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiTraceTest, ConfuserStaysCorrectAndConverges) {
  Program P = parse(ConfuserSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.K = 1;
  Options.Cfg.Execution.TracesPerIteration = GetParam();
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Proven);
  EXPECT_EQ(Outcomes[0].CheapestCost, 3u);
  // With one trace per iteration, each iteration blames one site: 4
  // iterations. With three or more, one iteration suffices to learn all
  // three causes, so the second run already proves.
  if (GetParam() == 1) {
    EXPECT_EQ(Outcomes[0].Iterations, 4u);
  }
  if (GetParam() >= 3) {
    EXPECT_EQ(Outcomes[0].Iterations, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(TraceCounts, MultiTraceTest,
                         ::testing::Values(1u, 2u, 3u, 8u));

TEST(MultiTrace, ImpossibleQueriesStillDetected) {
  Program P = parse(EscapedSrc);
  escape::EscapeAnalysis A(P);
  TracerOptions Options;
  Options.Cfg.Execution.TracesPerIteration = 4;
  QueryDriver<escape::EscapeAnalysis> Driver(P, A, Options);
  auto Outcomes = Driver.run({CheckId(0)});
  EXPECT_EQ(Outcomes[0].V, Verdict::Impossible);
}

} // namespace
