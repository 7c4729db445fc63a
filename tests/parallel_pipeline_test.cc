// Tests of the parallel optimization pipeline (core/pipeline.h jobs > 0):
// SCC dependency groups come out in valid topological order, sharded runs
// are bit-identical to the whole-program pipeline for every worker count,
// a warm cache replays every group byte for byte, and
// a fault injected into one dependency group quarantines only that group
// while the rest of the program is optimized at full strength.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "core/analysis_cache.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/pipeline.h"
#include "program_generator.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore {
namespace {

using core::GuardedPipeline;
using core::LadderLevel;
using core::PipelineOptions;
using core::PredOutcome;
using core::TransformFaultPlan;
using term::PredId;
using term::TermStore;

// Three independent clusters plus a mutually recursive pair, so the call
// graph condenses into several dependency groups including one multi-
// predicate SCC. No edges between clusters: abundant parallelism.
const char kMultiCluster[] = R"(
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
edge(a, b).
edge(b, c).
edge(c, d).
edge(d, a).
path2(X, Y) :- edge(X, Z), edge(Z, Y).
triple(X, Y, Z) :- edge(X, Y), path2(Y, Z).
even(0).
even(X) :- X > 0, Y is X - 1, odd(Y).
odd(X) :- X > 0, Y is X - 1, even(Y).
)";

const std::vector<std::string> kClusterQueries = {
    "grand(X, Z)",  "sib(X, Y)",  "uncle(X, Y)", "path2(X, Y)",
    "triple(X, Y, Z)", "even(6)", "odd(7)"};

const PredOutcome* FindOutcome(const core::PipelineReport& report,
                               const std::string& name) {
  for (const PredOutcome& o : report.preds) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

/// stage_error hook failing `pred_name` at `stage` ("*" = every stage).
/// The closure only touches original PredIds (the pipeline checks faults
/// before renaming), whose symbol ids are identical in every per-group
/// adopted store — safe to call from sharded worker threads.
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
  for (const std::string& query : kClusterQueries) {
    auto c = eval.CompareQuery(query);
    ASSERT_TRUE(c.ok()) << query << ": " << c.status().ToString();
    EXPECT_TRUE(c->set_equivalent) << query;
    EXPECT_EQ(c->original_answers, c->reordered_answers) << query;
  }
}

TEST(DependencyGroupsTest, TopologicalOrderIsValid) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  auto graph = analysis::CallGraph::Build(store, *program);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(*graph);

  ASSERT_GT(dg.size(), 1u);
  size_t total_members = 0;
  for (size_t g = 0; g < dg.size(); ++g) {
    total_members += dg.groups[g].size();
    // Callees-first order: every dependency is an earlier group.
    for (size_t dep : dg.deps[g]) {
      EXPECT_LT(dep, g);
    }
    // group_of is the inverse of the membership lists.
    for (const PredId& p : dg.groups[g]) {
      auto it = dg.group_of.find(p);
      ASSERT_NE(it, dg.group_of.end());
      EXPECT_EQ(it->second, g);
    }
    // The transitive closure contains the direct dependencies.
    std::vector<size_t> closure = dg.TransitiveDeps(g);
    std::set<size_t> closure_set(closure.begin(), closure.end());
    for (size_t dep : dg.deps[g]) {
      EXPECT_EQ(closure_set.count(dep), 1u) << "group " << g;
    }
  }
  // Condensation is a partition: every defined predicate in one group.
  EXPECT_EQ(total_members, dg.group_of.size());
}

TEST(DependencyGroupsTest, MutualRecursionSharesOneGroup) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  auto graph = analysis::CallGraph::Build(store, *program);
  ASSERT_TRUE(graph.ok());
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(*graph);

  PredId even{store.symbols().Intern("even"), 1};
  PredId odd{store.symbols().Intern("odd"), 1};
  ASSERT_EQ(dg.group_of.count(even), 1u);
  ASSERT_EQ(dg.group_of.count(odd), 1u);
  EXPECT_EQ(dg.group_of.at(even), dg.group_of.at(odd));

  // Independent clusters land in distinct groups.
  PredId grand{store.symbols().Intern("grand"), 2};
  PredId path2{store.symbols().Intern("path2"), 2};
  ASSERT_EQ(dg.group_of.count(grand), 1u);
  ASSERT_EQ(dg.group_of.count(path2), 1u);
  EXPECT_NE(dg.group_of.at(grand), dg.group_of.at(path2));
}

TEST(ParallelPipelineTest, ShardedOutputBitIdenticalAcrossJobCounts) {
  // Reference: jobs=1 (no worker threads: the whole-program path).
  std::string reference_text;
  std::string reference_report;
  {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    PipelineOptions options;
    options.jobs = 1;
    GuardedPipeline pipeline(&store, options);
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference_text = reader::WriteProgram(store, result->program);
    reference_report = result->report.ToJson();
    ExpectSetEquivalent(&store, *program, result->program);
  }

  for (size_t jobs : {size_t{2}, size_t{4}, size_t{8}}) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    PipelineOptions options;
    options.jobs = jobs;
    GuardedPipeline pipeline(&store, options);
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(reader::WriteProgram(store, result->program), reference_text)
        << "jobs=" << jobs;
    EXPECT_EQ(result->report.ToJson(), reference_report)
        << "jobs=" << jobs;
  }
}

TEST(ParallelPipelineTest, ShardedEqualsWholeProgramByteForByte) {
  // Group by group, against the callee groups' published summaries, the
  // sharded run emits exactly the whole-program pipeline's program and
  // report — cross-group calls go to the callees' specialized versions.
  std::string whole_text, whole_report;
  {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    auto result = GuardedPipeline(&store).Run(*program);  // whole-program
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    whole_text = reader::WriteProgram(store, result->program);
    whole_report = result->report.ToJson();
    ExpectSetEquivalent(&store, *program, result->program);
  }
  EXPECT_NE(whole_text.find("grand_uu(X,Z) :-\n    parent_uu("),
            std::string::npos)
      << whole_text;
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  PipelineOptions options;
  options.jobs = 2;
  auto result = GuardedPipeline(&store, options).Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(reader::WriteProgram(store, result->program), whole_text);
  EXPECT_EQ(result->report.ToJson(), whole_report);
}

// Anonymous variables in heads and bodies: the cached rendering of a
// group must re-validate and replay to the cold bytes.
const char kAnonymousVars[] = R"(
owns(ann, car). owns(bob, bike). owns(bob, car).
likes(ann, _).
likes(bob, X) :- owns(bob, X).
has_any(P) :- owns(P, _).
fan(P, _) :- likes(P, car), has_any(P).
)";

TEST(ParallelPipelineTest, WarmCacheReplaysEveryGroupByteForByte) {
  core::AnalysisCache cache;
  std::string cold;
  for (int pass = 0; pass < 2; ++pass) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kAnonymousVars);
    ASSERT_TRUE(program.ok());
    auto graph = analysis::CallGraph::Build(store, *program);
    ASSERT_TRUE(graph.ok());
    const size_t groups = analysis::ComputeDependencyGroups(*graph).size();
    PipelineOptions options;
    options.jobs = 1;
    options.cache = &cache;
    auto result = GuardedPipeline(&store, options).Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->report.degraded()) << result->report.ToText();
    const std::string text = reader::WriteProgram(store, result->program);
    if (pass == 0) {
      cold = text;
      EXPECT_EQ(result->report.cache_misses, groups);
      continue;
    }
    EXPECT_EQ(result->report.cache_hits, groups);
    EXPECT_EQ(result->report.cache_rejected, 0u);
    EXPECT_EQ(text, cold);
  }
}

// A deterministic demotion recurs on every recompute, so the demoted
// group and its callers are cached and replay to the same program and
// report.
TEST(ParallelPipelineTest, DeterministicDemotionReplaysFromCache) {
  core::AnalysisCache cache;
  std::string cold_text, cold_report;
  for (int pass = 0; pass < 2; ++pass) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    auto graph = analysis::CallGraph::Build(store, *program);
    ASSERT_TRUE(graph.ok());
    const size_t groups = analysis::ComputeDependencyGroups(*graph).size();
    TransformFaultPlan plan = FaultFor(store, "grand/2", "*");
    PipelineOptions options;
    options.jobs = 2;
    options.fault = &plan;
    options.cache = &cache;
    auto result = GuardedPipeline(&store, options).Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->report.degraded());
    const std::string text = reader::WriteProgram(store, result->program);
    if (pass == 0) {
      cold_text = text;
      cold_report = result->report.ToJson();
      continue;
    }
    EXPECT_EQ(result->report.cache_hits, groups);
    EXPECT_EQ(text, cold_text);
    EXPECT_EQ(result->report.ToJson(), cold_report);
  }
}

// A cached group is replayed only under the caller facts it was built
// with. In fuzz seed 19, rule3's second clause is rule2's only caller:
// without it rule2 is a root (absint analyzes it in every mode); with it,
// rule2 is only called bound. The predicates and rule2's clauses are the
// same either way, but rule2's key must change, or rule3 would be priced
// against statistics the whole-program run never sees.
TEST(ParallelPipelineTest, CallerEditRekeysCalleeGroups) {
  const std::string full = testing::ProgramGenerator(19).Generate().source;
  std::string uncalled;
  std::istringstream lines(full);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("rule3(", 0) == 0 &&
        line.find("rule2(") != std::string::npos) {
      continue;
    }
    uncalled += line + "\n";
  }
  ASSERT_NE(uncalled, full);
  auto run = [](const std::string& source, core::AnalysisCache* cache) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, source);
    EXPECT_TRUE(program.ok());
    PipelineOptions options;
    options.cache = cache;
    auto result = GuardedPipeline(&store, options).Run(*program);
    EXPECT_TRUE(result.ok());
    return reader::WriteProgram(store, result->program);
  };
  core::AnalysisCache cache;
  run(uncalled, &cache);
  EXPECT_EQ(run(full, &cache), run(full, nullptr));
}

TEST(ParallelPipelineTest, FaultQuarantinesOnlyItsGroup) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  // Sabotage every transform stage of grand/2: its group must fall to
  // identity, everything outside the family cluster stays at full power.
  TransformFaultPlan plan = FaultFor(store, "grand/2", "*");
  PipelineOptions options;
  options.jobs = 2;
  options.fault = &plan;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->report.degraded());
  EXPECT_GT(plan.fired, 0u);
  const PredOutcome* grand = FindOutcome(result->report, "grand/2");
  ASSERT_NE(grand, nullptr);
  EXPECT_EQ(grand->level, LadderLevel::kIdentity);
  EXPECT_FALSE(grand->triggers.empty());

  // Predicates in unrelated dependency groups are untouched by the
  // injected fault. (triple/3 independently self-quarantines via its own
  // PL102 validator finding — deterministic, fault-free — so the blast
  // radius check is: nobody but grand/2 ever sees a sabotage trigger.)
  for (const char* name : {"path2/2", "even/1", "odd/1", "edge/2"}) {
    const PredOutcome* o = FindOutcome(result->report, name);
    ASSERT_NE(o, nullptr) << name;
    EXPECT_EQ(o->level, LadderLevel::kFull) << name;
    EXPECT_TRUE(o->triggers.empty()) << name;
  }
  for (const PredOutcome& o : result->report.preds) {
    if (o.name == "grand/2") continue;
    for (const std::string& t : o.triggers) {
      EXPECT_EQ(t.find("sabotaged"), std::string::npos)
          << o.name << ": " << t;
    }
  }

  // Quarantine preserves semantics: all clusters still answer correctly.
  ExpectSetEquivalent(&store, *program, result->program);
}

}  // namespace
}  // namespace prore
