// Tests for the execution-profile subsystem: engine port counting
// (engine/profile.h), the persistent format's round-trip/merge/validation
// contracts (profile/profile.h, docs/profile-format.md), the content-hash
// staleness fallback, and a differential check that profile-fed
// reordering preserves answer multisets and error outcomes — including
// under transform-stage fault injection.

#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/fault.h"
#include "core/pipeline.h"
#include "core/reorderer.h"
#include "engine/database.h"
#include "engine/machine.h"
#include "engine/profile.h"
#include "gtest/gtest.h"
#include "profile/profile.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore {
namespace {

using engine::ProfileCollector;
using profile::ProfileData;

/// Parses `source`, runs every query (text without the trailing dot) to
/// exhaustion with the collector armed, and returns the recorded profile.
struct Recording {
  term::TermStore store;
  reader::Program program;
  ProfileCollector collector;
  ProfileData data;
};

void Record(const std::string& source,
            const std::vector<std::string>& queries, Recording* out,
            bool first_solution = false) {
  auto program = reader::ParseProgramText(&out->store, source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  out->program = std::move(*program);
  auto db = engine::Database::Build(&out->store, out->program);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  engine::SolveOptions opts;
  opts.profile = &out->collector;
  engine::Machine machine(&out->store, &db.value(), opts);
  for (const std::string& q : queries) {
    auto parsed = reader::ParseQueryText(&out->store, q + ".");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto metrics = first_solution
                       ? machine.Solve(parsed->term, [] { return false; })
                       : machine.Solve(parsed->term);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  }
  auto hashes = profile::ComputeProfileHashes(out->store, out->program);
  ASSERT_TRUE(hashes.ok()) << hashes.status().ToString();
  out->data = profile::FromCollector(out->store, out->program,
                                     out->collector, *hashes);
}

term::PredId Pred(term::TermStore* store, const char* name, uint32_t arity) {
  return term::PredId{store->symbols().Intern(name), arity};
}

// ---- Engine port counting --------------------------------------------------

TEST(ProfileCollector, PortCountsMatchByrdBoxSemantics) {
  Recording rec;
  Record("p(X) :- q(X).\nq(1).\nq(2).\n", {"p(X)"}, &rec);
  const auto& preds = rec.collector.preds();

  auto p = preds.find(Pred(&rec.store, "p", 1));
  ASSERT_NE(p, preds.end());
  EXPECT_EQ(p->second.ports.call, 1u);
  EXPECT_EQ(p->second.ports.exit, 2u);   // two solutions
  EXPECT_EQ(p->second.ports.succ, 1u);   // one call with >= 1 exit
  // Redo counts non-first exits (1, the second solution) plus the final
  // re-entry that exhausts the choicepoint (engine/profile.h documents
  // this approximation).
  EXPECT_EQ(p->second.ports.redo, 2u);
  EXPECT_EQ(p->second.ports.fail, 1u);   // exhaustion fails in the end
  ASSERT_EQ(p->second.clauses.size(), 1u);
  EXPECT_EQ(p->second.clauses[0].tries, 1u);
  EXPECT_EQ(p->second.clauses[0].entries, 1u);
  EXPECT_EQ(p->second.clauses[0].exits, 2u);
  EXPECT_EQ(p->second.clauses[0].first_exits, 1u);

  auto q = preds.find(Pred(&rec.store, "q", 1));
  ASSERT_NE(q, preds.end());
  EXPECT_EQ(q->second.ports.call, 1u);
  EXPECT_EQ(q->second.ports.exit, 2u);
  EXPECT_EQ(q->second.ports.succ, 1u);
  ASSERT_EQ(q->second.clauses.size(), 2u);
  EXPECT_EQ(q->second.clauses[0].exits, 1u);
  EXPECT_EQ(q->second.clauses[1].exits, 1u);
}

TEST(ProfileCollector, FailurePortsAndUntriedClauses) {
  Recording rec;
  Record("r(X) :- s(X), t(X).\ns(1).\ns(2).\nt(9).\n", {"r(X)"}, &rec);
  const auto& preds = rec.collector.preds();
  auto r = preds.find(Pred(&rec.store, "r", 1));
  ASSERT_NE(r, preds.end());
  EXPECT_EQ(r->second.ports.call, 1u);
  EXPECT_EQ(r->second.ports.exit, 0u);
  EXPECT_EQ(r->second.ports.succ, 0u);
  EXPECT_EQ(r->second.ports.fail, 1u);
  auto t = preds.find(Pred(&rec.store, "t", 1));
  ASSERT_NE(t, preds.end());
  EXPECT_EQ(t->second.ports.call, 2u);  // once per s/1 solution
  EXPECT_EQ(t->second.ports.exit, 0u);
  EXPECT_EQ(t->second.ports.fail, 2u);
}

TEST(ProfileCollector, OffByDefaultAndMetricsUnchanged) {
  // With no collector armed, the engine must behave exactly as before:
  // same metrics, same answers (the fast paths stay enabled).
  const std::string source = "a(X) :- b(X).\nb(1).\nb(2).\nb(3).\n";
  uint64_t calls[2], solutions[2];
  for (int armed = 0; armed < 2; ++armed) {
    term::TermStore store;
    auto program = reader::ParseProgramText(&store, source);
    ASSERT_TRUE(program.ok());
    auto db = engine::Database::Build(&store, *program);
    ASSERT_TRUE(db.ok());
    ProfileCollector collector;
    engine::SolveOptions opts;
    if (armed) opts.profile = &collector;
    engine::Machine machine(&store, &db.value(), opts);
    auto q = reader::ParseQueryText(&store, "a(X).");
    ASSERT_TRUE(q.ok());
    auto metrics = machine.Solve(q->term);
    ASSERT_TRUE(metrics.ok());
    calls[armed] = metrics->TotalCalls();
    solutions[armed] = metrics->solutions;
    if (!armed) {
      EXPECT_TRUE(collector.empty());
    }
  }
  // Calls and answers agree whether or not instrumentation is armed (the
  // armed run may allocate extra choicepoints, but resolution is the
  // same).
  EXPECT_EQ(calls[0], calls[1]);
  EXPECT_EQ(solutions[0], solutions[1]);
}

// ---- Format round-trip and merge -------------------------------------------

TEST(ProfileFormat, RoundTripIsByteStable) {
  Recording rec;
  Record("p(X) :- q(X).\nq(1).\nq(2).\n", {"p(X)", "p(1)"}, &rec);
  const std::string json = profile::ToJson(rec.data);
  auto parsed = profile::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(profile::ToJson(*parsed), json);
  // Fingerprints follow the bytes.
  EXPECT_EQ(profile::Fingerprint(*parsed), profile::Fingerprint(rec.data));
}

TEST(ProfileFormat, MergeSumsCountsAndRoundTrips) {
  Recording rec;
  Record("p(X) :- q(X).\nq(1).\nq(2).\n", {"p(X)"}, &rec);
  auto merged = profile::Merge(rec.data, rec.data);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->runs, 2u);
  const auto& one = rec.data.preds.at("p/1");
  const auto& two = merged->preds.at("p/1");
  EXPECT_EQ(two.ports.call, 2 * one.ports.call);
  EXPECT_EQ(two.ports.exit, 2 * one.ports.exit);
  EXPECT_EQ(two.clauses[0].tries, 2 * one.clauses[0].tries);
  // write -> merge -> load -> write is bit-stable.
  auto reparsed = profile::FromJson(profile::ToJson(*merged));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(profile::ToJson(*reparsed), profile::ToJson(*merged));
}

TEST(ProfileFormat, MergeRejectsMismatchedClauseContent) {
  Recording a, b;
  Record("p(1).\n", {"p(X)"}, &a);
  Record("p(1).\np(2).\n", {"p(X)"}, &b);  // different clause count + hash
  auto merged = profile::Merge(a.data, b.data);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("p/1"), std::string::npos);
}

// ---- Schema validation -----------------------------------------------------

TEST(ProfileFormat, RejectsWrongVersionWithActionableError) {
  auto r = profile::FromJson(
      "{\"format\":\"prore-profile\",\"version\":99,\"runs\":1,"
      "\"predicates\":[]}");
  ASSERT_FALSE(r.ok());
  const std::string msg = r.status().ToString();
  EXPECT_NE(msg.find("version"), std::string::npos) << msg;
  EXPECT_NE(msg.find("re-record"), std::string::npos) << msg;
}

TEST(ProfileFormat, RejectsWrongFormatName) {
  auto r = profile::FromJson(
      "{\"format\":\"something-else\",\"version\":1,\"predicates\":[]}");
  EXPECT_FALSE(r.ok());
}

TEST(ProfileFormat, RejectsNegativeCounts) {
  auto r = profile::FromJson(
      "{\"format\":\"prore-profile\",\"version\":1,\"runs\":1,"
      "\"predicates\":[{\"pred\":\"p/1\",\"hash\":\"0000000000000001\","
      "\"ports\":{\"call\":-3,\"exit\":0,\"redo\":0,\"fail\":0,\"succ\":0},"
      "\"clauses\":[]}]}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("p/1"), std::string::npos);
}

TEST(ProfileFormat, RejectsCorruptSuccExceedingCall) {
  auto r = profile::FromJson(
      "{\"format\":\"prore-profile\",\"version\":1,\"runs\":1,"
      "\"predicates\":[{\"pred\":\"p/1\",\"hash\":\"0000000000000001\","
      "\"ports\":{\"call\":1,\"exit\":5,\"redo\":0,\"fail\":0,\"succ\":4},"
      "\"clauses\":[]}]}");
  EXPECT_FALSE(r.ok());
}

TEST(ProfileFormat, ValidateAgainstProgramRejectsUnknownPredicate) {
  Recording rec;
  Record("p(1).\n", {"p(X)"}, &rec);
  // Forge an entry for a predicate the program does not define.
  ProfileData forged = rec.data;
  profile::PredProfile ghost;
  ghost.content_hash = 1;
  forged.preds["nosuch/3"] = ghost;
  Status st =
      profile::ValidateAgainstProgram(rec.store, rec.program, forged);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("nosuch/3"), std::string::npos);
  // The unforged profile passes.
  EXPECT_TRUE(profile::ValidateAgainstProgram(rec.store, rec.program,
                                              rec.data)
                  .ok());
}

// ---- Staleness fallback ----------------------------------------------------

TEST(ProfileApply, StaleContentHashFallsBackToStaticModel) {
  // Record against one version of q/1, then apply against an edited one.
  Recording rec;
  Record("p(X) :- q(X).\nq(1).\nq(2).\n",
         {"p(X)", "p(X)", "p(X)", "p(X)", "p(X)", "p(X)", "p(X)", "p(X)"},
         &rec);

  term::TermStore store2;
  auto edited = reader::ParseProgramText(
      &store2, "p(X) :- q(X).\nq(1).\nq(2).\nq(3).\n");
  ASSERT_TRUE(edited.ok());
  cost::EmpiricalProfile empirical;
  auto report = profile::BuildEmpirical(&store2, *edited, rec.data,
                                        profile::ApplyOptions(), &empirical);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // q/1 changed -> stale and NOT applied; p/1 is unchanged -> applied.
  EXPECT_GE(report->stale, 1u);
  EXPECT_GE(report->applied, 1u);
  EXPECT_EQ(empirical.preds.count(Pred(&store2, "q", 1)), 0u);
  EXPECT_EQ(empirical.preds.count(Pred(&store2, "p", 1)), 1u);
  bool q_reported_stale = false;
  for (const auto& o : report->outcomes) {
    if (o.pred == "q/1") {
      EXPECT_EQ(o.kind, profile::ApplyOutcome::Kind::kStale);
      q_reported_stale = true;
    }
  }
  EXPECT_TRUE(q_reported_stale);
}

TEST(ProfileApply, LowSampleCountsFallBackToStaticModel) {
  Recording rec;
  Record("p(X) :- q(X).\nq(1).\n", {"p(X)"}, &rec);  // 1 call < min_calls
  cost::EmpiricalProfile empirical;
  auto report = profile::BuildEmpirical(&rec.store, rec.program, rec.data,
                                        profile::ApplyOptions(), &empirical);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied, 0u);
  EXPECT_GE(report->low_samples, 2u);
  EXPECT_TRUE(empirical.preds.empty());
}

// ---- Differential: profile-fed reordering preserves semantics --------------

/// Reorders `source` with the recorded profile feeding the cost model
/// (optionally under a transform fault plan via the guarded pipeline) and
/// asserts answer-multiset equivalence on `queries`.
void ExpectProfiledReorderEquivalent(const std::string& source,
                                     const std::vector<std::string>& train,
                                     const std::vector<std::string>& queries,
                                     core::TransformFaultPlan* fault) {
  Recording rec;
  Record(source, train, &rec);
  cost::EmpiricalProfile empirical;
  auto report = profile::BuildEmpirical(&rec.store, rec.program, rec.data,
                                        profile::ApplyOptions(), &empirical);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  core::PipelineOptions po;
  po.reorder.profile = &empirical;
  po.reorder.fault = fault;
  core::GuardedPipeline pipeline(&rec.store, po);
  auto result = pipeline.Run(rec.program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  core::Evaluator eval(&rec.store, rec.program, result->program);
  auto cmp = eval.CompareQueries(queries);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_TRUE(cmp->set_equivalent);
  EXPECT_EQ(cmp->original_answers, cmp->reordered_answers);
}

TEST(ProfileDifferential, AnswerMultisetsPreserved) {
  const std::string source =
      "accept(X) :- src(X), f1(X), f2(X).\n"
      "src(s1).\nsrc(s2).\nsrc(s3).\nsrc(s4).\nsrc(s5).\nsrc(s6).\n"
      "src(s7).\nsrc(s8).\nsrc(s9).\nsrc(s10).\n"
      "f1(s1).\nf1(s2).\nf1(s3).\nf1(s4).\nf1(s5).\nf1(s6).\nf1(s7).\n"
      "f1(s8).\n"
      "f2(s7).\nf2(s8).\nf2(z1).\nf2(z2).\nf2(z3).\nf2(z4).\nf2(z5).\n"
      "f2(z6).\n";
  std::vector<std::string> train(10, "accept(X)");
  ExpectProfiledReorderEquivalent(source, train, {"accept(X)", "accept(s7)"},
                                  nullptr);
}

TEST(ProfileDifferential, PreservedUnderTransformFaultInjection) {
  const std::string source =
      "top(X, Y) :- gen(X), chk(X), pair(X, Y).\n"
      "gen(1).\ngen(2).\ngen(3).\ngen(4).\ngen(5).\n"
      "chk(2).\nchk(4).\n"
      "pair(2, a).\npair(4, b).\npair(4, c).\n";
  std::vector<std::string> train(10, "top(X, Y)");
  // Sabotage every goal_order stage: the guarded pipeline must degrade
  // the affected predicates instead of shipping a wrong program, with the
  // profile still plugged in for the stages that do run.
  core::TransformFaultPlan plan;
  plan.stage_error = [](const term::PredId&, const char* stage) {
    if (std::string(stage) == "goal_order") {
      return Status::Internal("injected goal_order fault");
    }
    return Status::OK();
  };
  ExpectProfiledReorderEquivalent(source, train, {"top(X, Y)", "top(4, Y)"},
                                  &plan);
  EXPECT_GT(plan.fired.load(), 0u);
}

TEST(ProfileDifferential, ErrorOutcomesPreserved) {
  // A query that raises: both programs must raise the same ball.
  const std::string source =
      "calc(X, Y) :- val(X), Y is X + 1.\n"
      "calc(X, Y) :- sym(X), Y is X + 1.\n"  // type_error when reached
      "val(1).\nval(2).\nsym(oops).\n";
  Recording rec;
  std::vector<std::string> train(10, "calc(X, Y)");
  // Training queries themselves error out on the sym/1 clause; solve each
  // under catch/3 so recording completes.
  std::vector<std::string> caught;
  caught.reserve(train.size());
  for (const auto& q : train) {
    caught.push_back("catch((" + q + "), _, true)");
  }
  Record(source, caught, &rec);
  cost::EmpiricalProfile empirical;
  auto report = profile::BuildEmpirical(&rec.store, rec.program, rec.data,
                                        profile::ApplyOptions(), &empirical);
  ASSERT_TRUE(report.ok());

  core::ReorderOptions options;
  options.profile = &empirical;
  core::Reorderer reorderer(&rec.store, options);
  auto reordered = reorderer.Run(rec.program);
  ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();

  std::string balls[2];
  const reader::Program* programs[2] = {&rec.program, &reordered->program};
  for (int v = 0; v < 2; ++v) {
    auto db = engine::Database::Build(&rec.store, *programs[v]);
    ASSERT_TRUE(db.ok());
    engine::Machine machine(&rec.store, &db.value(), engine::SolveOptions());
    auto q = reader::ParseQueryText(&rec.store, "calc(X, Y).");
    ASSERT_TRUE(q.ok());
    auto metrics = machine.Solve(q->term);
    ASSERT_FALSE(metrics.ok());  // the sym/1 clause raises
    auto err = engine::PrologErrorFromStatus(metrics.status());
    ASSERT_TRUE(err.has_value());
    balls[v] = err->ball;
  }
  EXPECT_EQ(balls[0], balls[1]);
}

// ---- End-to-end skew: measurements beat wrong static assumptions -----------

TEST(ProfileApply, ClauseSkewReordersByMeasuredSuccess) {
  // Static model prefers the 2-fact clause; the workload only ever
  // succeeds through the 30-fact one.
  std::string source =
      "lookup(K) :- small(K).\n"
      "lookup(K) :- big(K).\n"
      "small(a1).\nsmall(a2).\n";
  std::vector<std::string> queries;
  for (int i = 1; i <= 30; ++i) {
    source += "big(b" + std::to_string(i) + ").\n";
    queries.push_back("lookup(b" + std::to_string(i) + ")");
  }
  Recording rec;
  Record(source, queries, &rec, /*first_solution=*/true);
  cost::EmpiricalProfile empirical;
  auto report = profile::BuildEmpirical(&rec.store, rec.program, rec.data,
                                        profile::ApplyOptions(), &empirical);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->applied, 1u);

  auto run = [&](const cost::EmpiricalProfile* prof) {
    core::ReorderOptions options;
    options.profile = prof;
    core::Reorderer reorderer(&rec.store, options);
    auto result = reorderer.Run(rec.program);
    EXPECT_TRUE(result.ok());
    return reader::WriteProgram(rec.store, result->program);
  };
  const std::string static_text = run(nullptr);
  const std::string profiled_text = run(&empirical);
  // The profile must actually change the outcome on this program...
  EXPECT_NE(static_text, profiled_text);
  // ...and an empty profile must not.
  cost::EmpiricalProfile empty;
  EXPECT_EQ(run(&empty), static_text);
}

}  // namespace
}  // namespace prore
