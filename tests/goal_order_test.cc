#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "core/clause_order.h"
#include "core/goal_order.h"
#include "cost/cost_model.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore::core {
namespace {

using analysis::AbstractEnv;
using analysis::BodyNode;
using analysis::Mode;
using analysis::ModeFromString;
using term::PredId;
using term::TermStore;

/// Builds the full analysis stack for a program and exposes the pieces the
/// order search needs.
class OrderFixture {
 public:
  explicit OrderFixture(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto g = analysis::CallGraph::Build(store_, program_);
    EXPECT_TRUE(g.ok());
    graph_ = std::move(g).value();
    auto f = analysis::AnalyzeFixity(store_, program_, graph_);
    EXPECT_TRUE(f.ok());
    fixity_ = std::move(f).value();
    auto m = analysis::InferModes(store_, program_, graph_, decls_);
    EXPECT_TRUE(m.ok());
    modes_ = std::move(m).value();
    oracle_ = std::make_unique<analysis::LegalityOracle>(&store_, &program_,
                                                         &graph_, &modes_);
    auto st = analysis::RefineSemifixity(store_, program_, graph_,
                                         oracle_.get(), &fixity_);
    EXPECT_TRUE(st.ok());
    costs_ = std::make_unique<cost::CostModel>(&store_, &program_, &graph_,
                                               &decls_, oracle_.get());
  }

  /// Top-level body elements of `name`/`arity`'s first clause.
  std::vector<const BodyNode*> Elements(const std::string& name,
                                        uint32_t arity) {
    PredId id{store_.symbols().Intern(name), arity};
    const auto& clause = program_.ClausesOf(id)[0];
    auto tree = analysis::ParseBody(store_, clause.body);
    EXPECT_TRUE(tree.ok());
    trees_.push_back(std::move(tree).value());
    std::vector<const BodyNode*> out;
    if (trees_.back()->kind == analysis::BodyKind::kConj) {
      for (const auto& child : trees_.back()->children) {
        out.push_back(child.get());
      }
    } else {
      out.push_back(trees_.back().get());
    }
    return out;
  }

  AbstractEnv EnvFor(const std::string& name, uint32_t arity,
                     const std::string& mode) {
    PredId id{store_.symbols().Intern(name), arity};
    const auto& clause = program_.ClausesOf(id)[0];
    return analysis::EnvFromHead(store_, clause.head,
                                 std::move(ModeFromString(mode)).value());
  }

  GoalOrderSearch Search(GoalOrderOptions opts = GoalOrderOptions()) {
    return GoalOrderSearch(&store_, costs_.get(), &fixity_, opts);
  }

  std::string GoalName(const BodyNode* node) {
    return store_.symbols().Name(
        store_.pred_id(store_.Deref(node->goal)).name);
  }

  TermStore store_;
  reader::Program program_;
  analysis::CallGraph graph_;
  analysis::Declarations decls_;
  analysis::FixityResult fixity_;
  analysis::ModeAnalysis modes_;
  std::unique_ptr<analysis::LegalityOracle> oracle_;
  std::unique_ptr<cost::CostModel> costs_;
  std::vector<std::unique_ptr<BodyNode>> trees_;
};

TEST(GoalOrderTest, NarrowGeneratorMovesFirst) {
  OrderFixture fx(R"(
    wide(1). wide(2). wide(3). wide(4). wide(5). wide(6). wide(7). wide(8).
    narrow(1). narrow(2).
    main(X) :- wide(X), narrow(X).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->changed);
  EXPECT_EQ(fx.GoalName(r->order[0]), "narrow");
  EXPECT_LT(r->cost_all, r->original_cost);
}

TEST(GoalOrderTest, AlreadyOptimalOrderUnchanged) {
  OrderFixture fx(R"(
    wide(1). wide(2). wide(3). wide(4). wide(5). wide(6). wide(7). wide(8).
    narrow(1). narrow(2).
    main(X) :- narrow(X), wide(X).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->changed);
  EXPECT_EQ(fx.GoalName(r->order[0]), "narrow");
}

TEST(GoalOrderTest, IllegalOrdersPruned) {
  // Y is X + 1 demands X ground: no order may put it before gen(X).
  OrderFixture fx(R"(
    gen(1). gen(2). gen(3).
    main(Y) :- gen(X), Y is X + 1, gen(Y).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  // `is` must come after gen(X) in the chosen order.
  size_t gen_x = 99, is_pos = 99;
  for (size_t i = 0; i < r->order.size(); ++i) {
    std::string name = fx.GoalName(r->order[i]);
    if (name == "is") is_pos = i;
    if (name == "gen" && gen_x == 99) gen_x = i;
  }
  EXPECT_LT(gen_x, is_pos);
}

TEST(GoalOrderTest, SemifixedVarTestKeepsItsState) {
  // var(X) sees X free originally; placing it after gen(X) would flip its
  // outcome, so every candidate keeping set-equivalence leaves it first.
  OrderFixture fx(R"(
    gen(1). gen(2). gen(3). gen(4). gen(5).
    main(X) :- var(X), gen(X), gen(X).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fx.GoalName(r->order[0]), "var");
}

TEST(GoalOrderTest, CulpritVarsOfNegation) {
  OrderFixture fx(R"(
    p(1).
    main(X, Y) :- p(X), \+ p(Y), p(Y).
  )");
  auto elements = fx.Elements("main", 2);
  GoalOrderSearch search = fx.Search();
  // The negation is semifixed in its variable Y.
  ASSERT_EQ(elements.size(), 3u);
  auto culprits = search.CulpritVars(*elements[1]);
  EXPECT_EQ(culprits.size(), 1u);
  // The plain p(X) call has none.
  EXPECT_TRUE(search.CulpritVars(*elements[0]).empty());
}

TEST(GoalOrderTest, AStarMatchesExhaustiveOnRandomChains) {
  std::mt19937 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 3 + rng() % 3;
    std::string src;
    std::string body;
    for (size_t g = 0; g < n; ++g) {
      size_t facts = 1 + rng() % 9;
      for (size_t f = 0; f < facts; ++f) {
        src += "g" + std::to_string(g) + "(k" + std::to_string(f % 3) +
               ", v" + std::to_string(f) + "_" + std::to_string(g) + ").\n";
      }
      if (g > 0) body += ", ";
      body += "g" + std::to_string(g) + "(X" + std::to_string(g) + ", Y" +
              std::to_string(g) + ")";
    }
    src += "target(X0) :- " + body + ".\n";
    OrderFixture fx(src);
    auto elements = fx.Elements("target", 1);
    AbstractEnv env = fx.EnvFor("target", 1, "(-)");

    GoalOrderOptions exhaustive_opts;
    exhaustive_opts.exhaustive_threshold = 10;
    auto exhaustive = fx.Search(exhaustive_opts).FindBestOrder(elements, env);

    GoalOrderOptions astar_opts;
    astar_opts.exhaustive_threshold = 0;
    astar_opts.use_astar = true;
    auto astar = fx.Search(astar_opts).FindBestOrder(elements, env);

    ASSERT_TRUE(exhaustive.ok() && astar.ok()) << "trial " << trial;
    EXPECT_NEAR(exhaustive->cost_all, astar->cost_all,
                1e-6 * (1.0 + exhaustive->cost_all))
        << "trial " << trial << "\n" << src;
  }
}

/// The random fact chains of AStarMatchesExhaustiveOnRandomChains: each
/// goal a generator over its own facts, every order legal.
std::string RandomChainProgram(std::mt19937* rng) {
  size_t n = 3 + (*rng)() % 3;
  std::string src;
  std::string body;
  for (size_t g = 0; g < n; ++g) {
    size_t facts = 1 + (*rng)() % 9;
    for (size_t f = 0; f < facts; ++f) {
      src += "g" + std::to_string(g) + "(k" + std::to_string(f % 3) + ", v" +
             std::to_string(f) + "_" + std::to_string(g) + ").\n";
    }
    if (g > 0) body += ", ";
    body += "g" + std::to_string(g) + "(X" + std::to_string(g) + ", Y" +
            std::to_string(g) + ")";
  }
  return src + "target(X0) :- " + body + ".\n";
}

/// The goal-order search restated on the public API, scoring every
/// candidate with one full EvaluateSequence: brute force over all
/// permutations, Warren's greedy pass, and the placement filter both share
/// (proven legal or at least as instantiated as in the original order,
/// culprit variables in their original states).
class ReferenceSearch {
 public:
  ReferenceSearch(OrderFixture* fx, std::vector<const BodyNode*> elements,
                  AbstractEnv start)
      : fx_(fx), elements_(std::move(elements)), start_(std::move(start)) {
    GoalOrderSearch search = fx_->Search();
    AbstractEnv env = start_;
    for (const BodyNode* node : elements_) {
      Snapshot snap;
      for (uint32_t var : search.CulpritVars(*node)) {
        snap.culprits.emplace_back(var, env.Get(var));
      }
      std::vector<term::TermRef> vars;
      fx_->store_.CollectVars(node->goal, &vars);
      for (term::TermRef v : vars) {
        uint32_t id = fx_->store_.var_id(v);
        snap.all.emplace_back(id, env.Get(id));
      }
      snapshots_.push_back(std::move(snap));
      fx_->costs_->AdvanceEnv(*node, &env);
    }
  }

  double Cost(const std::vector<const BodyNode*>& order) {
    auto eval = fx_->costs_->EvaluateSequence(order, start_);
    EXPECT_TRUE(eval.ok());
    return eval.ok() ? eval->chain.cost_all_solutions
                     : std::numeric_limits<double>::infinity();
  }

  /// Every admissible permutation, in the lexicographic index order of
  /// the exhaustive search, with its full-evaluation cost.
  std::vector<std::pair<std::vector<const BodyNode*>, double>> Candidates() {
    std::vector<std::pair<std::vector<const BodyNode*>, double>> out;
    std::vector<size_t> perm(elements_.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    do {
      AbstractEnv env = start_;
      std::vector<const BodyNode*> order;
      bool ok = true;
      for (size_t i : perm) {
        if (!Admissible(i, env)) {
          ok = false;
          break;
        }
        fx_->costs_->AdvanceEnv(*elements_[i], &env);
        order.push_back(elements_[i]);
      }
      if (ok) out.emplace_back(order, Cost(order));
    } while (std::next_permutation(perm.begin(), perm.end()));
    return out;
  }

  /// FindBestOrder's acceptance rule: a candidate replaces the original
  /// order only when strictly cheaper.
  std::vector<const BodyNode*> Accept(std::vector<const BodyNode*> order,
                                      double cost) {
    return cost + 1e-9 < Cost(elements_) ? order : elements_;
  }

  std::vector<const BodyNode*> Warren() {
    std::vector<const BodyNode*> order;
    std::vector<bool> used(elements_.size(), false);
    AbstractEnv env = start_;
    for (size_t step = 0; step < elements_.size(); ++step) {
      double best_factor = std::numeric_limits<double>::infinity();
      size_t best = elements_.size();
      for (size_t i = 0; i < elements_.size(); ++i) {
        if (used[i] || !Admissible(i, env)) continue;
        auto single = fx_->costs_->EvaluateSequence({elements_[i]}, env);
        double p = single->goal_stats[0].success_prob;
        double factor = p;
        if (elements_[i]->kind == analysis::BodyKind::kCall) {
          term::TermRef goal = fx_->store_.Deref(elements_[i]->goal);
          factor = fx_->costs_->ExpectedMatches(
              fx_->store_.pred_id(goal), env.CallModeOf(fx_->store_, goal));
          if (factor == 0.0) factor = p;
        }
        if (factor < best_factor) {
          best_factor = factor;
          best = i;
        }
      }
      if (best == elements_.size()) return elements_;
      used[best] = true;
      order.push_back(elements_[best]);
      fx_->costs_->AdvanceEnv(*elements_[best], &env);
    }
    return Accept(order, Cost(order));
  }

 private:
  struct Snapshot {
    std::vector<std::pair<uint32_t, analysis::VarState>> culprits;
    std::vector<std::pair<uint32_t, analysis::VarState>> all;
  };

  static int Rank(analysis::VarState s) {
    switch (s) {
      case analysis::VarState::kFree:
        return 0;
      case analysis::VarState::kUnknown:
        return 1;
      case analysis::VarState::kGround:
        return 2;
    }
    return 0;
  }

  bool Admissible(size_t i, const AbstractEnv& env) {
    const Snapshot& snap = snapshots_[i];
    auto single = fx_->costs_->EvaluateSequence({elements_[i]}, env);
    EXPECT_TRUE(single.ok());
    bool legal = single.ok() && single->legal;
    if (!legal) {
      legal = std::all_of(snap.all.begin(), snap.all.end(), [&](auto& vs) {
        return Rank(env.Get(vs.first)) >= Rank(vs.second);
      });
    }
    return legal && std::all_of(snap.culprits.begin(), snap.culprits.end(),
                                [&](auto& vs) {
                                  return env.Get(vs.first) == vs.second;
                                });
  }

  OrderFixture* fx_;
  std::vector<const BodyNode*> elements_;
  AbstractEnv start_;
  std::vector<Snapshot> snapshots_;
};

TEST(GoalOrderTest, IncrementalScoringMatchesFullEvaluation) {
  struct Case {
    std::string src, pred, mode;
    uint32_t arity;
  };
  std::vector<Case> cases;
  std::mt19937 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    cases.push_back({RandomChainProgram(&rng), "target", "(-)", 1});
  }
  const std::string facts = R"(
    p(1). p(2). p(3). p(4). p(5).
    q(2). q(3).
    r(3). r(4). r(5).
    s(1). s(4).
    t(4, a). t(3, b). t(2, c). t(5, a).
  )";
  // A negation (semifixed in Y) and a disjunction among generators.
  cases.push_back({facts + "main(X, Y) :- p(X), \\+ q(Y), (r(X) ; s(X)), "
                           "t(X, Y), q(X).",
                   "main", "(-,-)", 2});
  cases.push_back({facts + "main(X, Y) :- (r(X) ; s(X)), t(X, Y), p(X), "
                           "\\+ s(Y), q(X).",
                   "main", "(-,+)", 2});
  cases.push_back({facts + "main(X, Y) :- p(X), (t(X, Y) ; q(X)), r(X), "
                           "\\+ t(Y, a), s(X), p(Y).",
                   "main", "(-,-)", 2});
  size_t changed = 0;
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c) + "\n" + cases[c].src);
    OrderFixture fx(cases[c].src);
    auto elements = fx.Elements(cases[c].pred, cases[c].arity);
    AbstractEnv env = fx.EnvFor(cases[c].pred, cases[c].arity,
                                cases[c].mode);
    ReferenceSearch ref(&fx, elements, env);
    auto candidates = ref.Candidates();
    ASSERT_FALSE(candidates.empty());
    double min_cost = std::numeric_limits<double>::infinity();
    std::vector<const BodyNode*> first_best;
    for (const auto& [order, cost] : candidates) {
      if (cost < min_cost) {
        min_cost = cost;
        first_best = order;
      }
    }

    GoalOrderOptions exhaustive_opts;
    exhaustive_opts.exhaustive_threshold = 10;
    auto exhaustive = fx.Search(exhaustive_opts).FindBestOrder(elements, env);
    ASSERT_TRUE(exhaustive.ok());
    EXPECT_EQ(exhaustive->order, ref.Accept(first_best, min_cost));
    EXPECT_EQ(exhaustive->cost_all, ref.Cost(exhaustive->order));
    if (exhaustive->changed) ++changed;

    GoalOrderOptions astar_opts;
    astar_opts.exhaustive_threshold = 0;
    auto astar = fx.Search(astar_opts).FindBestOrder(elements, env);
    ASSERT_TRUE(astar.ok());
    EXPECT_EQ(astar->cost_all, ref.Cost(astar->order));
    // A* may break an exact tie differently; it must pick an optimum.
    std::vector<const BodyNode*> accepted_astar = elements;
    for (const auto& [order, cost] : candidates) {
      if (cost == min_cost && order == astar->order) {
        accepted_astar = ref.Accept(order, cost);
      }
    }
    EXPECT_EQ(astar->order, accepted_astar);

    GoalOrderOptions warren_opts;
    warren_opts.warren_heuristic = true;
    auto warren = fx.Search(warren_opts).FindBestOrder(elements, env);
    ASSERT_TRUE(warren.ok());
    EXPECT_EQ(warren->order, ref.Warren());
    EXPECT_EQ(warren->cost_all, ref.Cost(warren->order));
  }
  EXPECT_GE(changed, cases.size() / 2);  // the searches did move goals
}

TEST(GoalOrderTest, CostWatchdogTripsInsideExhaustiveSearch) {
  // Six generators: the exhaustive search places an element 1,956 times
  // (6 + 6*5 + ... + 6!), one cost-watchdog step each.
  std::string src;
  std::string body;
  for (int g = 0; g < 6; ++g) {
    for (int f = 0; f <= g; ++f) {
      src += "g" + std::to_string(g) + "(" + std::to_string(f) + ").\n";
    }
    body += std::string(g ? ", " : "") + "g" + std::to_string(g) + "(X" +
            std::to_string(g) + ")";
  }
  src += "main(X0) :- " + body + ".\n";
  auto run = [&](uint64_t max_steps, uint64_t* steps) {
    OrderFixture fx(src);
    fx.costs_->ArmWatchdog(prore::WatchdogBudget{max_steps, 0});
    GoalOrderOptions opts;
    opts.exhaustive_threshold = 10;
    auto r = fx.Search(opts).FindBestOrder(fx.Elements("main", 1),
                                           fx.EnvFor("main", 1, "(-)"));
    *steps = fx.costs_->watchdog().steps();
    return r.status();
  };
  uint64_t total = 0;
  ASSERT_TRUE(run(uint64_t{1} << 40, &total).ok());
  // Scoring the original order and recording its signatures take one step
  // per element each; everything else is one step per placement.
  EXPECT_EQ(total, 2 * 6 + 1956u);

  uint64_t tripped_at = 0;
  prore::Status trip = run(total / 2, &tripped_at);
  EXPECT_EQ(trip.code(), prore::StatusCode::kResourceExhausted);
  EXPECT_EQ(trip.error_term(), "resource_error(watchdog(cost_model))");
  EXPECT_EQ(tripped_at, total / 2 + 1);  // the search stopped at the trip
}

TEST(GoalOrderTest, WarrenGreedyProducesLegalOrder) {
  OrderFixture fx(R"(
    gen(1). gen(2). gen(3).
    main(Y) :- gen(X), Y is X * 2.
  )");
  GoalOrderOptions opts;
  opts.warren_heuristic = true;
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search(opts).FindBestOrder(elements,
                                         fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fx.GoalName(r->order[0]), "gen");  // `is` cannot go first
}

TEST(GoalOrderTest, TooLargeWithoutAStarKeepsOriginal) {
  std::string src;
  std::string body;
  for (int g = 0; g < 8; ++g) {
    src += "h" + std::to_string(g) + "(1).\n";
    if (g) body += ", ";
    body += "h" + std::to_string(g) + "(X)";
  }
  src += "main(X) :- " + body + ".\n";
  OrderFixture fx(src);
  GoalOrderOptions opts;
  opts.exhaustive_threshold = 3;
  opts.use_astar = false;
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search(opts).FindBestOrder(elements,
                                         fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->changed);
  EXPECT_EQ(r->order, elements);
}

// ---- Clause ordering -----------------------------------------------------------

class ClauseOrderFixture : public OrderFixture {
 public:
  using OrderFixture::OrderFixture;

  ClauseOrderResult Order(const std::string& name, uint32_t arity,
                          const std::string& mode) {
    PredId id{store_.symbols().Intern(name), arity};
    auto r = OrderClauses(store_, program_, id,
                          std::move(ModeFromString(mode)).value(),
                          costs_.get(), fixity_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ClauseOrderResult{};
  }
};

TEST(ClauseOrderTest, CheapLikelyClauseMovesFirst) {
  // First clause: expensive body with low success; second: a cheap fact.
  ClauseOrderFixture fx(R"(
    deep(X) :- a(X), b(X), c(X), d(X).
    deep(base).
    a(1). a(2). a(3). b(9). c(9). d(9).
  )");
  ClauseOrderResult r = fx.Order("deep", 1, "(-)");
  ASSERT_EQ(r.order.size(), 2u);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.order[0], 1u);  // the fact first
  EXPECT_LT(r.new_cost, r.original_cost);
}

TEST(ClauseOrderTest, CutClauseIsBarrier) {
  ClauseOrderFixture fx(R"(
    p(X) :- slow(X), slow(X), slow(X).
    p(X) :- guard(X), !.
    p(base).
    slow(1). slow(2). guard(9).
  )");
  ClauseOrderResult r = fx.Order("p", 1, "(-)");
  // The cut clause (index 1) must stay at position 1.
  ASSERT_EQ(r.order.size(), 3u);
  EXPECT_EQ(r.order[1], 1u);
}

TEST(ClauseOrderTest, SingleClauseUntouched) {
  ClauseOrderFixture fx("only(X) :- q(X). q(1).");
  ClauseOrderResult r = fx.Order("only", 1, "(-)");
  EXPECT_FALSE(r.changed);
  ASSERT_EQ(r.order.size(), 1u);
}

TEST(ClauseOrderTest, EqualClausesKeepSourceOrder) {
  ClauseOrderFixture fx(R"(
    f(a). f(b). f(c).
  )");
  ClauseOrderResult r = fx.Order("f", 1, "(-)");
  EXPECT_FALSE(r.changed);
  EXPECT_EQ(r.order, (std::vector<size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace prore::core
