// Property-based testing of the whole pipeline: generate random (pure,
// terminating) Prolog programs, reorder them, and check set-equivalence of
// every query's answer multiset — the paper's §II guarantee. Parameterized
// over seeds so each seed is an independently reported test case.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/absint/absint.h"
#include "common/str_util.h"
#include "core/evaluation.h"
#include "core/reorderer.h"
#include "engine/database.h"
#include "engine/machine.h"
#include "lint/diagnostic.h"
#include "lint/lint.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"
#include "program_generator.h"
#include "testing/shrinker.h"

namespace prore {
namespace {

using testing::ProgramGenerator;

/// Failure path: delta-debugs the generated program down to a minimal
/// reproducer that still trips the same oracle, dumps it to an artifact
/// file (see testing::DumpRepro), and reports both. `kind` selects the
/// oracle: "validator", "crash", or "differential".
void ShrinkAndDump(const std::string& kind, const std::string& source,
                   const std::vector<std::string>& queries,
                   testing::OracleOptions oracle_options =
                       testing::OracleOptions()) {
  oracle_options.queries = queries;
  testing::Oracle oracle =
      kind == "validator" ? testing::ValidatorErrorOracle(oracle_options)
      : kind == "crash"   ? testing::CrashOracle(oracle_options)
                          : testing::DifferentialOracle(oracle_options);
  testing::ShrinkOptions shrink_options;
  shrink_options.max_oracle_calls = 300;  // bounded: this runs inside CI
  auto result = testing::Shrink(source, oracle, shrink_options);
  if (!result.ok()) {
    ADD_FAILURE() << "shrinker could not reproduce the " << kind
                  << " failure in isolation: "
                  << result.status().ToString();
    return;
  }
  auto artifact = testing::DumpRepro(
      kind, result->source,
      prore::StrFormat("minimized from a %zu-clause fuzz program",
                       result->original_clauses));
  ADD_FAILURE() << "minimized " << kind << " reproducer ("
                << result->original_clauses << " -> "
                << result->final_clauses << " clauses):\n"
                << result->source
                << (artifact.ok() ? "artifact: " + *artifact
                                  : "artifact dump failed: " +
                                        artifact.status().ToString());
}

class ReorderFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReorderFuzzTest, RandomProgramStaysSetEquivalent) {
  ProgramGenerator gen(GetParam());
  auto generated = gen.Generate();
  SCOPED_TRACE(generated.source);

  term::TermStore store;
  auto program = reader::ParseProgramText(&store, generated.source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  core::Reorderer reorderer(&store);
  auto reordered = reorderer.Run(*program);
  if (!reordered.ok()) {
    ShrinkAndDump("crash", generated.source, generated.queries);
    FAIL() << reordered.status().ToString();
  }

  // The reorderer validates its own output (ReorderOptions::validate_output
  // defaults on); an error-severity diagnostic means self-verification
  // failed.
  bool validator_failed = false;
  for (const lint::Diagnostic& d : reordered->diagnostics) {
    if (d.severity == lint::Severity::kError) validator_failed = true;
    EXPECT_NE(d.severity, lint::Severity::kError) << d.ToString();
  }
  if (validator_failed) {
    ShrinkAndDump("validator", generated.source, generated.queries);
  }

  bool differential_failed = false;
  core::Evaluator eval(&store, *program, reordered->program);
  for (const std::string& query : generated.queries) {
    auto c = eval.CompareQuery(query);
    ASSERT_TRUE(c.ok()) << query << ": " << c.status().ToString();
    if (!c->set_equivalent) differential_failed = true;
    EXPECT_TRUE(c->set_equivalent) << query;
    EXPECT_EQ(c->original_answers, c->reordered_answers) << query;
  }
  if (differential_failed) {
    ShrinkAndDump("differential", generated.source, generated.queries);
  }
}

TEST_P(ReorderFuzzTest, LintPassesAreCrashFreeAndDuplicateFree) {
  ProgramGenerator gen(GetParam() ^ 0x51A7u);
  auto generated = gen.Generate();
  SCOPED_TRACE(generated.source);

  term::TermStore store;
  auto program = reader::ParseProgramText(&store, generated.source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  lint::Linter linter;
  auto diags = linter.Run(store, *program);
  ASSERT_TRUE(diags.ok()) << diags.status().ToString();

  // Passes must never emit the same finding twice.
  std::set<std::string> unique;
  for (const lint::Diagnostic& d : *diags) {
    EXPECT_TRUE(unique.insert(d.ToString()).second)
        << "duplicate diagnostic: " << d.ToString();
  }
}

TEST_P(ReorderFuzzTest, NonSpecializedVariantAlsoSetEquivalent) {
  ProgramGenerator gen(GetParam() ^ 0xBEEF);
  auto generated = gen.Generate();
  SCOPED_TRACE(generated.source);

  term::TermStore store;
  auto program = reader::ParseProgramText(&store, generated.source);
  ASSERT_TRUE(program.ok());

  core::ReorderOptions opts;
  opts.specialize_modes = false;
  core::Reorderer reorderer(&store, opts);
  auto reordered = reorderer.Run(*program);
  ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();

  bool differential_failed = false;
  core::Evaluator eval(&store, *program, reordered->program);
  for (const std::string& query : generated.queries) {
    auto c = eval.CompareQuery(query);
    ASSERT_TRUE(c.ok()) << query << ": " << c.status().ToString();
    if (!c->set_equivalent) differential_failed = true;
    EXPECT_TRUE(c->set_equivalent) << query;
  }
  if (differential_failed) {
    testing::OracleOptions oracle_options;
    oracle_options.reorder.specialize_modes = false;
    ShrinkAndDump("differential", generated.source, generated.queries,
                  oracle_options);
  }
}

TEST_P(ReorderFuzzTest, ReorderedProgramTextReparses) {
  ProgramGenerator gen(GetParam() * 2654435761u);
  auto generated = gen.Generate();

  term::TermStore store;
  auto program = reader::ParseProgramText(&store, generated.source);
  ASSERT_TRUE(program.ok());
  core::Reorderer reorderer(&store);
  auto reordered = reorderer.Run(*program);
  ASSERT_TRUE(reordered.ok());

  std::string text = reader::WriteProgram(store, reordered->program);
  term::TermStore fresh;
  auto reparsed = reader::ParseProgramText(&fresh, text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed->NumClauses(), reordered->program.NumClauses());
}

TEST_P(ReorderFuzzTest, AbsintNeverCrashesAndIsDeterministic) {
  // The abstract interpreter must terminate cleanly on every generated
  // program (ok or a plain Status — never a crash or a hang past the
  // widening/saturation caps) and, when it succeeds, produce a
  // bit-identical dump on a second run.
  ProgramGenerator gen(GetParam() ^ 0xAB51u);
  auto generated = gen.Generate();
  SCOPED_TRACE(generated.source);

  term::TermStore store;
  auto program = reader::ParseProgramText(&store, generated.source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto graph = analysis::CallGraph::Build(store, *program);
  if (!graph.ok()) return;
  auto decls = analysis::ParseDeclarations(store, *program);
  if (!decls.ok()) return;
  auto modes = analysis::InferModes(store, *program, *graph, *decls);
  const analysis::ModeAnalysis* modes_ptr = modes.ok() ? &*modes : nullptr;

  auto first = analysis::absint::RunAbsint(store, *program, *graph, *decls,
                                           modes_ptr);
  auto second = analysis::absint::RunAbsint(store, *program, *graph, *decls,
                                            modes_ptr);
  ASSERT_EQ(first.ok(), second.ok());
  if (first.ok()) {
    EXPECT_EQ(analysis::absint::DumpAbsint(*first),
              analysis::absint::DumpAbsint(*second));
  }
}

TEST_P(ReorderFuzzTest, ChoicepointElisionPreservesAnswersAndErrors) {
  // Elision may only skip clauses whose head unification was going to
  // fail: the answer sequence (order included) and any error outcome must
  // be identical with the optimization on and off.
  ProgramGenerator gen(GetParam() ^ 0xE115u);
  auto generated = gen.Generate();
  SCOPED_TRACE(generated.source);

  term::TermStore store;
  auto program = reader::ParseProgramText(&store, generated.source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto db = engine::Database::Build(&store, *program);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  engine::SolveOptions on;
  on.use_choicepoint_elision = true;
  engine::SolveOptions off;
  off.use_choicepoint_elision = false;
  engine::Machine m_on(&store, &*db, on);
  engine::Machine m_off(&store, &*db, off);

  for (const std::string& query : generated.queries) {
    SCOPED_TRACE(query);
    auto q1 = reader::ParseQueryText(&store, query + ".");
    auto q2 = reader::ParseQueryText(&store, query + ".");
    ASSERT_TRUE(q1.ok() && q2.ok());
    auto a_on = m_on.SolveToStrings(q1->term, q1->term);
    auto a_off = m_off.SolveToStrings(q2->term, q2->term);
    ASSERT_EQ(a_on.ok(), a_off.ok())
        << (a_on.ok() ? a_off.status() : a_on.status()).ToString();
    if (a_on.ok()) {
      EXPECT_EQ(*a_on, *a_off);
    } else {
      EXPECT_EQ(a_on.status().ToString(), a_off.status().ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderFuzzTest,
                         ::testing::Range(1u, 41u));

}  // namespace
}  // namespace prore
