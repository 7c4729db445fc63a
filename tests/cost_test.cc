#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/callgraph.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "cost/cost_model.h"
#include "reader/parser.h"
#include "term/store.h"

namespace prore::cost {
namespace {

using analysis::Mode;
using analysis::ModeFromString;
using term::PredId;
using term::TermStore;

class CostTest : public ::testing::Test {
 protected:
  void Load(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto g = analysis::CallGraph::Build(store_, program_);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    auto d = analysis::ParseDeclarations(store_, program_);
    ASSERT_TRUE(d.ok());
    decls_ = std::move(d).value();
    auto m = analysis::InferModes(store_, program_, graph_, decls_);
    ASSERT_TRUE(m.ok());
    modes_ = std::move(m).value();
    oracle_ = std::make_unique<analysis::LegalityOracle>(&store_, &program_,
                                                         &graph_, &modes_);
    costs_ = std::make_unique<CostModel>(&store_, &program_, &graph_,
                                         &decls_, oracle_.get());
  }

  PredId Id(const std::string& name, uint32_t arity) {
    return PredId{store_.symbols().Intern(name), arity};
  }
  Mode M(const std::string& s) { return std::move(ModeFromString(s)).value(); }

  TermStore store_;
  reader::Program program_;
  analysis::CallGraph graph_;
  analysis::Declarations decls_;
  analysis::ModeAnalysis modes_;
  std::unique_ptr<analysis::LegalityOracle> oracle_;
  std::unique_ptr<CostModel> costs_;
};

TEST(ExpectedSingleCallCostTest, MatchesHandComputation) {
  // Two clauses, p = {0.5, 0.5}, c = {2, 4}:
  //   0.5*2 + 0.5*0.5*(2+4) + 0.25*(2+4) = 1 + 1.5 + 1.5 = 4.
  EXPECT_NEAR(ExpectedSingleCallCost({0.5, 0.5}, {2, 4}), 4.0, 1e-12);
  // Certain first clause: only its own cost.
  EXPECT_NEAR(ExpectedSingleCallCost({1.0, 0.5}, {3, 100}), 3.0, 1e-12);
  // All failing: the full scan is still paid.
  EXPECT_NEAR(ExpectedSingleCallCost({0.0, 0.0}, {3, 4}), 7.0, 1e-12);
  EXPECT_NEAR(ExpectedSingleCallCost({}, {}), 0.0, 1e-12);
}

TEST_F(CostTest, FactPredicateWarrenStatistics) {
  Load(R"(
    color(red). color(green). color(blue). color(white).
  )");
  // Open call: 4 expected solutions, certain success, one call.
  PredModeStats open = costs_->StatsFor(Id("color", 1), M("(-)"));
  EXPECT_NEAR(open.expected_solutions, 4.0, 1e-9);
  EXPECT_NEAR(open.success_prob, 1.0, 1e-9);
  // Bound call: domain size 4 -> 1 expected match.
  PredModeStats bound = costs_->StatsFor(Id("color", 1), M("(+)"));
  EXPECT_NEAR(bound.expected_solutions, 1.0, 1e-9);
  EXPECT_LE(bound.success_prob, 1.0);
}

TEST_F(CostTest, ExpectedMatchesWarrenFactor) {
  // Warren's borders/2 illustration (§I-E): instantiating positions
  // divides the expected matches by the domain sizes.
  Load(R"(
    edge(a, x). edge(a, y). edge(b, x). edge(b, z).
    edge(c, y). edge(c, z).
  )");
  PredId edge = Id("edge", 2);
  EXPECT_NEAR(costs_->ExpectedMatches(edge, M("(-,-)")), 6.0, 1e-9);
  EXPECT_NEAR(costs_->ExpectedMatches(edge, M("(+,-)")), 2.0, 1e-9);  // 6/3
  EXPECT_NEAR(costs_->ExpectedMatches(edge, M("(-,+)")), 2.0, 1e-9);  // 6/3
  EXPECT_NEAR(costs_->ExpectedMatches(edge, M("(+,+)")), 6.0 / 9.0, 1e-9);
}

TEST_F(CostTest, HeadMatchProbUsesDomains) {
  Load("f(a, 1). f(b, 2). f(c, 3).");
  PredId f = Id("f", 2);
  const auto& clause = program_.ClausesOf(f)[0];
  // Both bound: 1/3 * 1/3.
  EXPECT_NEAR(costs_->HeadMatchProb(f, clause.head, M("(+,+)")), 1.0 / 9.0,
              1e-9);
  // Free call args match any head.
  EXPECT_NEAR(costs_->HeadMatchProb(f, clause.head, M("(-,-)")), 1.0, 1e-9);
}

TEST_F(CostTest, VariableHeadArgAlwaysMatches) {
  Load("g(X, foo). g(Y, bar).");
  PredId g = Id("g", 2);
  const auto& clause = program_.ClausesOf(g)[0];
  Mode m = M("(+,+)");
  // First position is a variable in every head: factor 1; second has
  // domain 2.
  EXPECT_NEAR(costs_->HeadMatchProb(g, clause.head, m), 0.5, 1e-9);
}

TEST_F(CostTest, RuleCostGrowsWithBodyWork) {
  Load(R"(
    item(a). item(b). item(c). item(d). item(e).
    cheap(X) :- item(X).
    pricey(X) :- item(X), item(Y), item(Z), unrelated(Y, Z).
    unrelated(Y, Z) :- Y \== Z.
  )");
  PredModeStats cheap = costs_->StatsFor(Id("cheap", 1), M("(-)"));
  PredModeStats pricey = costs_->StatsFor(Id("pricey", 1), M("(-)"));
  EXPECT_GT(pricey.cost_all, cheap.cost_all);
}

TEST_F(CostTest, OverrideReplacesStats) {
  Load("f(a).");
  PredModeStats custom;
  custom.cost_all = 1234.0;
  custom.success_prob = 0.25;
  costs_->SetOverride(Id("f", 1), M("(-)"), custom);
  PredModeStats got = costs_->StatsFor(Id("f", 1), M("(-)"));
  EXPECT_DOUBLE_EQ(got.cost_all, 1234.0);
  EXPECT_DOUBLE_EQ(got.success_prob, 0.25);
}

TEST_F(CostTest, DeclaredStatsWin) {
  Load(R"(
    :- prob(mystery/1, 0.2).
    :- cost(mystery/1, 77.0).
    mystery(X) :- mystery(X).
    top(X) :- mystery(X).
  )");
  PredModeStats s = costs_->StatsFor(Id("mystery", 1), M("(-)"));
  EXPECT_DOUBLE_EQ(s.success_prob, 0.2);
  EXPECT_DOUBLE_EQ(s.cost_single, 77.0);
}

TEST_F(CostTest, RecursivePredicateGetsFiniteStats) {
  Load(R"(
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    main(N) :- len([a,b], N).
  )");
  PredModeStats s = costs_->StatsFor(Id("len", 2), M("(+,-)"));
  EXPECT_TRUE(std::isfinite(s.cost_all));
  EXPECT_GT(s.cost_all, 0.0);
  EXPECT_GE(s.success_prob, 0.0);
  EXPECT_LE(s.success_prob, 1.0);
}

TEST_F(CostTest, BuiltinTestsHaveSubUnitSolutions) {
  Load("f(1).");
  // A comparison is a test: at most one "solution", about half the time.
  PredModeStats lt = costs_->StatsFor(Id("<", 2), M("(+,+)"));
  EXPECT_LE(lt.expected_solutions, 1.0);
  EXPECT_NEAR(lt.cost_single, 1.0, 1e-9);
}

TEST_F(CostTest, EvaluateSequenceOrdersDiffer) {
  // generator-then-test vs test-impossible: the all-solutions cost of
  // (big-generator, small-generator) must exceed the reverse.
  Load(R"(
    big(1). big(2). big(3). big(4). big(5). big(6). big(7). big(8).
    big(9). big(10). big(11). big(12).
    small(1). small(2).
    main(X) :- big(X), small(X).
  )");
  PredId main_id = Id("main", 1);
  const auto& clause = program_.ClausesOf(main_id)[0];
  auto tree = analysis::ParseBody(store_, clause.body);
  ASSERT_TRUE(tree.ok());
  std::vector<const analysis::BodyNode*> fwd, rev;
  for (const auto& child : (*tree)->children) fwd.push_back(child.get());
  rev = {fwd[1], fwd[0]};
  analysis::AbstractEnv env;  // X free
  auto cost_fwd = costs_->EvaluateSequence(fwd, env);
  auto cost_rev = costs_->EvaluateSequence(rev, env);
  ASSERT_TRUE(cost_fwd.ok() && cost_rev.ok());
  EXPECT_GT(cost_fwd->chain.cost_all_solutions,
            cost_rev->chain.cost_all_solutions);
  EXPECT_TRUE(cost_fwd->legal);
  EXPECT_TRUE(cost_rev->legal);
}

TEST_F(CostTest, EvaluateSequenceFlagsIllegalOrder) {
  Load(R"(
    gen(1). gen(2).
    main(Y) :- gen(X), Y is X + 1.
  )");
  PredId main_id = Id("main", 1);
  const auto& clause = program_.ClausesOf(main_id)[0];
  auto tree = analysis::ParseBody(store_, clause.body);
  ASSERT_TRUE(tree.ok());
  std::vector<const analysis::BodyNode*> fwd, rev;
  for (const auto& child : (*tree)->children) fwd.push_back(child.get());
  rev = {fwd[1], fwd[0]};
  analysis::AbstractEnv env;
  auto ok_order = costs_->EvaluateSequence(fwd, env);
  auto bad_order = costs_->EvaluateSequence(rev, env);
  ASSERT_TRUE(ok_order.ok() && bad_order.ok());
  EXPECT_TRUE(ok_order->legal);
  EXPECT_FALSE(bad_order->legal);  // `is` before its input is bound
}

TEST_F(CostTest, EvaluateSequenceSingleChainMatchesAnalyzeClauseBody) {
  // EvaluateSequence reports the single-solution chain of its per-element
  // stats; that half must equal the reference two-chain analysis bit for
  // bit, on plain calls and on control constructs.
  Load(R"(
    a(1). a(2). a(3).
    b(1). b(x). b(y).
    c(2, z). c(3, w).
    d(X) :- a(X), b(X).
    main(X, Y) :- a(X), \+ b(Y), (c(X, Y) ; d(Y)), X > 1, d(X).
  )");
  const auto& clause = program_.ClausesOf(Id("main", 2))[0];
  auto tree = analysis::ParseBody(store_, clause.body);
  ASSERT_TRUE(tree.ok());
  std::vector<const analysis::BodyNode*> body;
  for (const auto& child : (*tree)->children) body.push_back(child.get());
  for (const char* mode : {"(-,-)", "(+,-)", "(+,+)"}) {
    SCOPED_TRACE(mode);
    analysis::AbstractEnv start =
        analysis::EnvFromHead(store_, clause.head, M(mode));
    std::vector<const analysis::BodyNode*> order = body;
    for (int rotation = 0; rotation < 5; ++rotation) {
      std::rotate(order.begin(), order.begin() + 1, order.end());
      auto eval = costs_->EvaluateSequence(order, start);
      ASSERT_TRUE(eval.ok());
      std::vector<markov::GoalStats> single;
      analysis::AbstractEnv env = start;
      for (size_t i = 0; i < order.size(); ++i) {
        PredModeStats s = costs_->NodeStats(*order[i], env);
        double p = std::min(1.0, std::max(0.0, s.success_prob));
        single.push_back({std::min(0.999, p), eval->goal_stats[i].cost});
        costs_->AdvanceEnv(*order[i], &env);
      }
      auto ref = markov::AnalyzeClauseBody(single);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(eval->chain.success_prob, ref->success_prob);
      EXPECT_EQ(eval->chain.cost_single, ref->cost_single);
      EXPECT_EQ(eval->chain.visits_single, ref->visits_single);
      EXPECT_TRUE(eval->env_after == env);
    }
  }
}

TEST_F(CostTest, ExpectedSolutionsMultiplyThroughgenerators) {
  Load(R"(
    a(1). a(2). a(3).
    b(x). b(y).
    pair(X, Y) :- a(X), b(Y).
  )");
  PredModeStats s = costs_->StatsFor(Id("pair", 2), M("(-,-)"));
  EXPECT_NEAR(s.expected_solutions, 6.0, 1.0);  // ~3*2 cross product
}

}  // namespace
}  // namespace prore::cost
