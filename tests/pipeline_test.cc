// Tests of the self-healing optimization pipeline (core/pipeline.h): the
// degradation ladder descends in order, identity is reachable under any
// fault plan, quarantined predicates are emitted bit-identically, the
// PipelineReport JSON is stable, the analysis watchdogs degrade instead of
// failing, a demotion re-runs only its own dependency group, and the repro
// shrinker produces 1-minimal reproducers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/watchdog.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/pipeline.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"
#include "testing/shrinker.h"

namespace prore {
namespace {

using core::GuardedPipeline;
using core::LadderLevel;
using core::PipelineOptions;
using core::PipelineResult;
using core::PredOutcome;
using core::TransformFaultPlan;
using term::PredId;
using term::TermStore;

const char kFamily[] = R"(
parent(tom, bob).
parent(tom, liz).
parent(bob, ann).
parent(bob, pat).
parent(pat, jim).
male(tom). male(bob). male(jim).
female(liz). female(ann). female(pat).
grand(X, Z) :- parent(X, Y), parent(Y, Z).
sib(X, Y) :- parent(P, X), parent(P, Y), X \== Y.
uncle(X, Y) :- sib(X, P), male(X), parent(P, Y).
)";

const std::vector<std::string> kFamilyQueries = {
    "grand(X, Z)", "grand(tom, Z)", "sib(X, Y)", "uncle(X, Y)",
    "parent(bob, C)"};

const PredOutcome* FindOutcome(const core::PipelineReport& report,
                               const std::string& name) {
  for (const PredOutcome& o : report.preds) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

/// stage_error hook failing `pred_name` at `stage` ("*" = every stage).
TransformFaultPlan FaultFor(const TermStore& store,
                            const std::string& pred_name,
                            const std::string& stage) {
  TransformFaultPlan plan;
  plan.stage_error = [&store, pred_name, stage](
                         const PredId& pred,
                         const char* at) -> prore::Status {
    if (reader::PredName(store, pred) != pred_name) {
      return prore::Status::OK();
    }
    if (stage != "*" && stage != at) return prore::Status::OK();
    return prore::Status::Internal("sabotaged " + stage + " stage");
  };
  return plan;
}

void ExpectSetEquivalent(TermStore* store, const reader::Program& original,
                         const reader::Program& transformed) {
  core::Evaluator eval(store, original, transformed);
  for (const std::string& query : kFamilyQueries) {
    auto c = eval.CompareQuery(query);
    ASSERT_TRUE(c.ok()) << query << ": " << c.status().ToString();
    EXPECT_TRUE(c->set_equivalent) << query;
    EXPECT_EQ(c->original_answers, c->reordered_answers) << query;
  }
}

// The ladder runs inside each dependency group's task, so every case runs
// with the inline pool (jobs=0) and with worker threads (jobs=4).
class GuardedPipelineTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GuardedPipelineTest, CleanRunIsNotDegraded) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  PipelineOptions options;
  options.jobs = GetParam();
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->report.degraded());
  EXPECT_EQ(result->report.runs, 1);
  EXPECT_EQ(result->report.quarantined(), 0u);
  for (const PredOutcome& o : result->report.preds) {
    EXPECT_EQ(o.level, LadderLevel::kFull) << o.name;
    EXPECT_EQ(o.attempts, 1) << o.name;
    EXPECT_TRUE(o.triggers.empty()) << o.name;
  }
  ExpectSetEquivalent(&store, *program, result->program);
}

TEST_P(GuardedPipelineTest, GoalOrderFaultDescendsToClauseOrderOnly) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  TransformFaultPlan plan = FaultFor(store, "grand/2", "goal_order");
  PipelineOptions options;
  options.jobs = GetParam();
  options.unfold = true;  // exposes the full ladder incl. no-unfold
  options.reorder.fault = &plan;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // full -> no-unfold -> clause-order-only: the first rung that skips the
  // sabotaged goal-ordering stage. Two demotions, three attempts.
  const PredOutcome* grand = FindOutcome(result->report, "grand/2");
  ASSERT_NE(grand, nullptr);
  EXPECT_EQ(grand->level, LadderLevel::kClauseOrderOnly);
  EXPECT_EQ(grand->attempts, 3);
  ASSERT_EQ(grand->triggers.size(), 2u);
  EXPECT_NE(grand->triggers[0].find("sabotaged"), std::string::npos);
  EXPECT_GE(plan.fired, 2u);

  // The healthy predicates are untouched by the quarantine.
  for (const char* name : {"parent/2", "sib/2", "uncle/2"}) {
    const PredOutcome* o = FindOutcome(result->report, name);
    ASSERT_NE(o, nullptr) << name;
    EXPECT_EQ(o->level, LadderLevel::kFull) << name;
  }
  ExpectSetEquivalent(&store, *program, result->program);
}

TEST_P(GuardedPipelineTest, PersistentFaultDescendsAllTheWayToIdentity) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  TransformFaultPlan plan = FaultFor(store, "grand/2", "*");
  PipelineOptions options;
  options.jobs = GetParam();
  options.unfold = true;
  options.reorder.fault = &plan;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // full -> no-unfold -> clause-order-only -> identity, one rung per run.
  const PredOutcome* grand = FindOutcome(result->report, "grand/2");
  ASSERT_NE(grand, nullptr);
  EXPECT_EQ(grand->level, LadderLevel::kIdentity);
  EXPECT_EQ(grand->attempts, 4);
  EXPECT_EQ(grand->triggers.size(), 3u);
  EXPECT_EQ(result->report.runs, 4);
  EXPECT_TRUE(result->report.degraded());
  EXPECT_EQ(result->report.quarantined(), 1u);
  ExpectSetEquivalent(&store, *program, result->program);
}

TEST_P(GuardedPipelineTest, IdentityIsReachableUnderTotalFault) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  TransformFaultPlan plan;
  plan.stage_error = [](const PredId&, const char*) {
    return prore::Status::Internal("everything is broken");
  };
  PipelineOptions options;
  options.jobs = GetParam();
  options.reorder.fault = &plan;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every predicate lands on the bottom rung, yet the output is a
  // complete, answer-equivalent program.
  for (const PredOutcome& o : result->report.preds) {
    EXPECT_EQ(o.level, LadderLevel::kIdentity) << o.name;
  }
  for (const PredId& pred : program->pred_order()) {
    EXPECT_TRUE(result->program.Has(pred))
        << reader::PredName(store, pred);
  }
  EXPECT_EQ(result->program.NumClauses(), program->NumClauses());
  ExpectSetEquivalent(&store, *program, result->program);
}

TEST_P(GuardedPipelineTest, QuarantinedPredicateIsEmittedBitIdentically) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  TransformFaultPlan plan = FaultFor(store, "sib/2", "*");
  PipelineOptions options;
  options.jobs = GetParam();
  options.reorder.fault = &plan;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PredOutcome* sib = FindOutcome(result->report, "sib/2");
  ASSERT_NE(sib, nullptr);
  ASSERT_EQ(sib->level, LadderLevel::kIdentity);

  // Identity emission reuses the original clause terms: not just equal
  // text, the very same TermRefs.
  PredId sib_id = sib->pred;
  const auto& original_clauses = program->ClausesOf(sib_id);
  ASSERT_TRUE(result->program.Has(sib_id));
  const auto& emitted_clauses = result->program.ClausesOf(sib_id);
  ASSERT_EQ(emitted_clauses.size(), original_clauses.size());
  for (size_t i = 0; i < original_clauses.size(); ++i) {
    EXPECT_EQ(emitted_clauses[i].head, original_clauses[i].head);
    EXPECT_EQ(emitted_clauses[i].body, original_clauses[i].body);
  }
}

TEST_P(GuardedPipelineTest, ReportJsonIsStableAcrossIdenticalRuns) {
  auto run_once = [jobs = GetParam()](std::string* json) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kFamily);
    ASSERT_TRUE(program.ok());
    TransformFaultPlan plan = FaultFor(store, "grand/2", "goal_order");
    PipelineOptions options;
    options.jobs = jobs;
    options.reorder.fault = &plan;
    GuardedPipeline pipeline(&store, options);
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok());
    *json = result->report.ToJson();
  };
  std::string first, second;
  run_once(&first);
  run_once(&second);
  EXPECT_EQ(first, second);

  // The JSON names the quarantined predicate, its ladder level, and the
  // triggering diagnostic (the acceptance-criteria contract).
  EXPECT_NE(first.find("\"pred\":\"grand/2\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"level\":\"clause-order-only\""),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("sabotaged goal_order stage"), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"degraded\":true"), std::string::npos) << first;
}

TEST_P(GuardedPipelineTest, CostWatchdogQuarantinesInsteadOfHanging) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  PipelineOptions options;
  options.jobs = GetParam();
  options.reorder.cost_watchdog.max_steps = 2;  // pathologically small
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.degraded());
  EXPECT_GT(result->report.quarantined(), 0u);
  bool saw_watchdog_trigger = false;
  for (const PredOutcome& o : result->report.preds) {
    for (const std::string& t : o.triggers) {
      if (t.find("watchdog") != std::string::npos) {
        saw_watchdog_trigger = true;
      }
    }
  }
  EXPECT_TRUE(saw_watchdog_trigger);
  ExpectSetEquivalent(&store, *program, result->program);
}

TEST_P(GuardedPipelineTest, CostWatchdogTripInGoalSearchQuarantines) {
  // A six-generator body: the exhaustive goal-order search places an
  // element 1,956 times per calling mode, one cost-watchdog step each;
  // everything else the run prices costs far less than the budget.
  std::string src;
  std::string body;
  for (int g = 0; g < 6; ++g) {
    for (int f = 0; f <= g; ++f) {
      src += "g" + std::to_string(g) + "(" + std::to_string(f) + ").\n";
    }
    body += std::string(g ? ", " : "") + "g" + std::to_string(g) + "(X" +
            std::to_string(g) + ")";
  }
  src += "wide(X0) :- " + body + ".\n";
  TermStore store;
  auto program = reader::ParseProgramText(&store, src);
  ASSERT_TRUE(program.ok());
  PipelineOptions options;
  options.jobs = GetParam();
  options.reorder.cost_watchdog.max_steps = 400;

  // Without the search the budget suffices: nothing degrades.
  PipelineOptions no_search = options;
  no_search.reorder.goal_search.exhaustive_threshold = 0;
  no_search.reorder.goal_search.use_astar = false;
  GuardedPipeline quiet(&store, no_search);
  auto clean = quiet.Run(*program);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE(clean->report.degraded());

  // With it the budget trips mid-search; only wide/1 is quarantined.
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.degraded());
  EXPECT_EQ(result->report.quarantined(), 1u);
  const PredOutcome* wide = FindOutcome(result->report, "wide/1");
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->level, LadderLevel::kClauseOrderOnly);
  bool saw_watchdog_trigger = false;
  for (const std::string& t : wide->triggers) {
    if (t.find("ResourceExhausted: watchdog: cost_model") !=
        std::string::npos) {
      saw_watchdog_trigger = true;
    }
  }
  EXPECT_TRUE(saw_watchdog_trigger) << result->report.ToJson();
  core::Evaluator eval(&store, *program, result->program);
  auto c = eval.CompareQuery("wide(X)");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->set_equivalent);
}

TEST_P(GuardedPipelineTest, ValidatorErrorsQuarantineTheOffendingPredicate) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kFamily);
  ASSERT_TRUE(program.ok());
  // A planted miscompile (silently dropped clause) that only the output
  // validator can see; its PL1xx error must demote exactly parent/2.
  TransformFaultPlan plan;
  for (const PredId& pred : program->pred_order()) {
    if (reader::PredName(store, pred) == "parent/2") {
      plan.drop_last_clause.insert(pred);
    }
  }
  PipelineOptions options;
  options.jobs = GetParam();
  options.reorder.fault = &plan;
  options.reorder.validate_output = true;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PredOutcome* parent = FindOutcome(result->report, "parent/2");
  ASSERT_NE(parent, nullptr);
  EXPECT_NE(parent->level, LadderLevel::kFull);
  ASSERT_FALSE(parent->triggers.empty());
  EXPECT_NE(parent->triggers[0].find("PL1"), std::string::npos)
      << parent->triggers[0];
  EXPECT_GT(plan.fired, 0u);
  ExpectSetEquivalent(&store, *program, result->program);
}

// The pipeline reads its budgets and its ExecContext from the reorderer's
// options: each one set there must take effect.
TEST_P(GuardedPipelineTest, ReorderOptionsBudgetsAndContextTakeEffect) {
  auto run = [](size_t jobs, const auto& configure) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kFamily);
    EXPECT_TRUE(program.ok());
    PipelineOptions options;
    options.jobs = jobs;
    configure(&options.reorder);
    auto result = GuardedPipeline(&store, options).Run(*program);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->report : core::PipelineReport();
  };
  const core::PipelineReport cost =
      run(GetParam(), [](core::ReorderOptions* ro) {
        ro->cost_watchdog.max_steps = 1;
      });
  EXPECT_GT(cost.quarantined(), 0u) << cost.ToText();

  const core::PipelineReport inference =
      run(GetParam(), [](core::ReorderOptions* ro) {
        ro->inference.watchdog.max_steps = 1;
      });
  EXPECT_NE(inference.global_trigger.find("mode_inference"),
            std::string::npos)
      << inference.ToText();

  const core::PipelineReport absint =
      run(GetParam(), [](core::ReorderOptions* ro) {
        ro->absint_watchdog.max_steps = 1;
      });
  EXPECT_TRUE(absint.absint_disabled) << absint.ToText();

  const core::PipelineReport expired =
      run(GetParam(), [](core::ReorderOptions* ro) {
        ro->exec.deadline = Deadline::AfterMs(0);
      });
  EXPECT_NE(expired.global_trigger.find("deadline"), std::string::npos)
      << expired.ToText();
  EXPECT_EQ(expired.quarantined(), expired.preds.size());
}

INSTANTIATE_TEST_SUITE_P(
    Jobs, GuardedPipelineTest, ::testing::Values(size_t{0}, size_t{4}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "jobs" + std::to_string(info.param);
    });

TEST(GuardedPipelineGroupTest, DemotionRerunsOnlyItsOwnGroup) {
  // Two independent dependency groups. A fault in a/1 sends a/1's group
  // down the ladder; b/1's group is built once, not once per retry.
  TermStore store;
  auto program = reader::ParseProgramText(&store, R"(
b(X) :- r(X), s(X).
r(1). s(1).
a(X) :- p(X), q(X).
p(1). q(1).
)");
  ASSERT_TRUE(program.ok());
  std::atomic<int> b_builds{0};
  TransformFaultPlan plan;
  plan.stage_error = [&](const PredId& pred, const char* stage) {
    const std::string name = reader::PredName(store, pred);
    if (name == "b/1" && std::string(stage) == "build") ++b_builds;
    if (name == "a/1" && std::string(stage) == "goal_order") {
      return prore::Status::Internal("sabotaged goal_order stage");
    }
    return prore::Status::OK();
  };
  PipelineOptions options;
  options.reorder.specialize_modes = false;  // one version per predicate
  options.reorder.fault = &plan;
  auto result = GuardedPipeline(&store, options).Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PredOutcome* a = FindOutcome(result->report, "a/1");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->level, LadderLevel::kClauseOrderOnly);
  EXPECT_EQ(a->attempts, 2);
  EXPECT_EQ(b_builds.load(), 1);
}

// ---- Watchdog unit behavior ------------------------------------------------

TEST(WatchdogTest, TripsAtTheStepBudgetWithResourceVocabulary) {
  prore::Watchdog dog({/*max_steps=*/3, /*timeout_ms=*/0}, "unit_test");
  EXPECT_TRUE(dog.Step().ok());
  EXPECT_TRUE(dog.Step().ok());
  EXPECT_TRUE(dog.Step().ok());
  prore::Status st = dog.Step();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), prore::StatusCode::kResourceExhausted);
  EXPECT_EQ(st.error_term(), "resource_error(watchdog(unit_test))");
  EXPECT_TRUE(dog.tripped());
  // Once tripped, it stays tripped.
  EXPECT_FALSE(dog.Step().ok());
  EXPECT_FALSE(dog.Check().ok());
}

TEST(WatchdogTest, UnarmedWatchdogNeverTrips) {
  prore::Watchdog dog;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(dog.Step().ok());
  }
  EXPECT_FALSE(dog.tripped());
}

// ---- Shrinker --------------------------------------------------------------

TEST(ShrinkerTest, ProducesAOneMinimalClauseSet) {
  // Semantic oracle: the failure needs one p/1 clause AND one q/1 clause.
  auto oracle = [](const std::string& source) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, source);
    if (!program.ok()) return false;
    bool has_p = false, has_q = false;
    for (const PredId& pred : program->pred_order()) {
      if (reader::PredName(store, pred) == "p/1") has_p = true;
      if (reader::PredName(store, pred) == "q/1") has_q = true;
    }
    return has_p && has_q;
  };
  const std::string source =
      "f(a).\nf(b).\np(a).\np(b).\nq(c).\nq(d).\ng(e).\nh(f).\n";
  auto result = testing::Shrink(source, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->original_clauses, 8u);
  EXPECT_EQ(result->final_clauses, 2u);
  EXPECT_TRUE(result->one_minimal);
  EXPECT_TRUE(oracle(result->source)) << result->source;

  // 1-minimality, verified by hand: deleting any single remaining clause
  // makes the failure disappear.
  std::vector<std::string> lines;
  std::string line;
  for (char c : result->source) {
    if (c == '\n') {
      if (!line.empty()) lines.push_back(line);
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  ASSERT_EQ(lines.size(), 2u) << result->source;
  for (size_t skip = 0; skip < lines.size(); ++skip) {
    std::string without;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i != skip) without += lines[i] + "\n";
    }
    EXPECT_FALSE(oracle(without)) << "still fails without: " << lines[skip];
  }
}

TEST(ShrinkerTest, RemovesUnneededBodyGoals) {
  // The failure only needs the q(X) goal inside r/1's body.
  auto oracle = [](const std::string& source) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, source);
    if (!program.ok()) return false;
    for (const PredId& pred : program->pred_order()) {
      if (reader::PredName(store, pred) != "r/1") continue;
      for (const auto& clause : program->ClausesOf(pred)) {
        if (reader::WriteTerm(store, clause.body).find("q(") !=
            std::string::npos) {
          return true;
        }
      }
    }
    return false;
  };
  const std::string source =
      "p(a).\nq(a).\ns(a).\nr(X) :- p(X), q(X), s(X).\n";
  auto result = testing::Shrink(source, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->final_clauses, 1u);
  EXPECT_EQ(result->removed_goals, 2u) << result->source;
  EXPECT_TRUE(oracle(result->source)) << result->source;
}

TEST(ShrinkerTest, WatchdogOracleEndToEnd) {
  // A multi-predicate program whose reordering trips a (tiny) cost
  // watchdog: the shrunk repro must still trip the same oracle.
  testing::OracleOptions oracle_options;
  oracle_options.reorder.cost_watchdog.max_steps = 1;
  testing::Oracle oracle = testing::WatchdogOracle(oracle_options);
  ASSERT_TRUE(oracle(kFamily));
  auto result = testing::Shrink(kFamily, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->final_clauses, result->original_clauses);
  EXPECT_TRUE(result->one_minimal);
  EXPECT_TRUE(oracle(result->source)) << result->source;
}

TEST(ShrinkerTest, RejectsInputThatDoesNotFail) {
  auto never_fails = [](const std::string&) { return false; };
  auto result = testing::Shrink("p(a).\n", never_fails);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), prore::StatusCode::kInvalidArgument);
}

TEST(ShrinkerTest, DumpReproWritesAnArtifactFile) {
  const std::string dir = ::testing::TempDir() + "prore_artifacts_test";
  ASSERT_EQ(setenv("PRORE_ARTIFACT_DIR", dir.c_str(), 1), 0);
  auto path = testing::DumpRepro("unit", "p(a).\n", "details line");
  ASSERT_EQ(unsetenv("PRORE_ARTIFACT_DIR"), 0);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path->find(dir), std::string::npos) << *path;
  std::ifstream in(*path);
  ASSERT_TRUE(in.good()) << *path;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("% oracle: unit"), std::string::npos);
  EXPECT_NE(contents.find("% details line"), std::string::npos);
  EXPECT_NE(contents.find("p(a)."), std::string::npos);
}

}  // namespace
}  // namespace prore
