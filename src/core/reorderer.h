#ifndef PRORE_CORE_REORDERER_H_
#define PRORE_CORE_REORDERER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/absint/absint.h"
#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/watchdog.h"
#include "core/fault.h"
#include "core/goal_order.h"
#include "cost/cost_model.h"
#include "lint/diagnostic.h"
#include "lint/validate.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::core {

/// Configuration of the whole reordering system (paper Fig. 3).
struct ReorderOptions {
  GoalOrderOptions goal_search;
  analysis::InferenceOptions inference;
  /// Reorder clauses within predicates by decreasing p/c (§III-A).
  bool reorder_clauses = true;
  /// Reorder goals within clause bodies (§III-B, §VI).
  bool reorder_goals = true;
  /// Generate one version of each predicate per calling mode, with a
  /// var/nonvar dispatcher under the original name (§VII, Fig. 7).
  bool specialize_modes = true;
  /// §V-D run-time tests: when a clause would reorder better under the
  /// assumption that its head arguments are instantiated, emit
  /// `( ground(A1), ... -> reordered ; original )` — "if the variables
  /// pass the tests, we use the new order and gain efficiency; if they
  /// fail, we use the original order and lose only the cost of the
  /// tests". Most useful with specialize_modes off.
  bool runtime_guards = false;
  /// Run the reorder validator (lint/validate.h) over the transformed
  /// program and report its findings in ReorderResult::diagnostics. The
  /// optimizer thereby verifies its own output on every run.
  bool validate_output = true;
  /// Run the interprocedural abstract interpretation (analysis/absint/)
  /// during setup: groundness success patterns tighten the inferred mode
  /// table before legality is decided (expanding the legal-reordering
  /// set), and determinism bounds clamp the cost model's expected solution
  /// counts. Off = the paper-baseline estimates — the --no-absint ablation
  /// and the GuardedPipeline's fallback after an absint watchdog trip.
  bool absint = true;
  /// Step/wall-clock budget for the absint fixpoints (0 fields =
  /// unlimited); a trip aborts Run with kResourceExhausted carrying
  /// resource_error(watchdog(absint)), which the GuardedPipeline maps to
  /// an absint-disabled re-run instead of quarantining a predicate.
  prore::WatchdogBudget absint_watchdog;

  // ---- Guarded-pipeline controls (core/pipeline.h) ----------------------

  /// Predicates restricted to clause reordering: no goal reordering, no
  /// mode specialization (one version under the original name), and their
  /// bodies are left textually intact (callees keep original names).
  analysis::PredSet clause_order_only;
  /// Predicates emitted verbatim (the identity transform): original
  /// clauses bit-for-bit under the original name, never specialized, and
  /// calls to them anywhere are never renamed.
  analysis::PredSet identity_preds;
  /// Invoked when building a predicate's version fails, just before the
  /// error propagates out of Run — the guarded pipeline uses it to learn
  /// which predicate to quarantine.
  std::function<void(const term::PredId&, const prore::Status&)>
      on_pred_error;
  /// Step/wall-clock budget for cost-model evaluation (0 = unlimited); a
  /// trip aborts the run with kResourceExhausted attributed to the
  /// predicate being built. Covers the goal-order search transitively.
  prore::WatchdogBudget cost_watchdog;
  /// Recorded execution profile to feed the cost model (not owned; must
  /// outlive the Run). Null = pure static model. Build one from a profile
  /// file with profile::BuildEmpirical, which performs the content-hash
  /// staleness check — predicates whose clauses changed since recording
  /// are dropped there, so whatever arrives here is safe to apply.
  const cost::EmpiricalProfile* profile = nullptr;
  /// Transform-stage fault injection (tests only); null = disabled.
  const TransformFaultPlan* fault = nullptr;
  /// Cancellation/deadline scope for the whole Run: threaded into every
  /// analysis watchdog (mode inference, absint, cost model) and checked
  /// at Run entry, so a cancelled or past-deadline context aborts with
  /// kCancelled / kResourceExhausted instead of starting new work.
  prore::ExecContext exec;
};

/// Per-(predicate, mode) account of what the reorderer did.
struct PredModeReport {
  term::PredId pred;
  analysis::Mode mode;
  std::string version_name;
  bool clauses_changed = false;
  bool goals_changed = false;
  /// Model-predicted all-solutions cost of the predicate's bodies before
  /// and after (sums over clauses; heuristic units of "calls").
  double predicted_original_cost = 0.0;
  double predicted_new_cost = 0.0;
};

/// What a finished run publishes about the predicates it owns, for runs
/// over their callers (paper Fig. 3's upward flow, one dependency group at
/// a time): the version each calling mode reaches once aliases are
/// resolved, and every cost-model statistic the run settled for them —
/// the reordered versions' stats plus whatever it memoized while building
/// them. An identity predicate is published under its original name.
struct CalleeSummary {
  std::vector<lint::VersionInfo> versions;  ///< in build order
  /// Keyed like the cost model's memo: "name/arity:mode-suffix".
  std::vector<std::pair<std::string, cost::PredModeStats>> stats;
};

/// What every run reads about the whole program, derived once per program:
/// the paper's restrictions (fixity §IV-B/C, legal modes §V) and the call
/// graph are facts about the whole program. They are keyed by PredId and
/// flow either callee -> caller (fixity) or caller -> callee (cut-freezing,
/// call patterns); a dependency group's cone is closed under callees, and
/// its callers' calls are what the whole program makes, so the whole-
/// program value is the cone's on every member. Shared read-only between
/// concurrent group runs.
struct ProgramFacts {
  analysis::Declarations decls;
  analysis::CallGraph graph;
  /// Every predicate the program defines, with the index of its SCC in
  /// graph.SccsBottomUp(): versions are built lowest rank first, so
  /// callers price reordered callees.
  std::unordered_map<term::PredId, size_t, term::PredIdHash> scc_rank;
  analysis::PredSet frozen;  ///< cut-freezing (FrozenDescendants)
  // ---- Set by Analyze ---------------------------------------------------
  analysis::ModeAnalysis modes;
  std::unique_ptr<analysis::absint::AbsintResult> absint;  ///< null if off
  analysis::FixityResult fixity;

  /// The declarations, the call graph with its SCC ranks, and
  /// cut-freezing.
  static prore::Result<ProgramFacts> Build(const term::TermStore& store,
                                           const reader::Program& program);
  /// The part only a run that builds something needs: mode inference,
  /// then (with ReorderOptions::absint) absint, its groundness folded into
  /// the mode table; then fixity, with semifixity refined under those
  /// modes.
  prore::Status Analyze(const term::TermStore& store,
                        const reader::Program& program,
                        const ReorderOptions& options);
};

/// One run over a dependency group and its callee cone (core/pipeline.h).
/// Every whole-program fact comes from `facts`; version names must be free
/// program-wide (facts->scc_rank); and the callee groups' summaries stand in
/// for their transforms. All pointees are shared read-only between
/// concurrent group runs.
struct GroupContext {
  const std::vector<term::PredId>* members = nullptr;
  const ProgramFacts* facts = nullptr;  ///< analyzed
  std::vector<const CalleeSummary*> callees;  ///< the whole callee cone
};

struct ReorderResult {
  reader::Program program;  ///< transformed program (versions + dispatchers)
  std::vector<PredModeReport> reports;
  /// Structured diagnostics: the reorderer's own notes (PL21x) plus, when
  /// ReorderOptions::validate_output is on, the reorder validator's
  /// findings (PL1xx). An error-severity entry means the transformation
  /// failed self-verification. Render with Diagnostic::ToString().
  std::vector<lint::Diagnostic> diagnostics;
  /// The run's own predicates, as its callers' runs see them.
  CalleeSummary summary;
};

/// The reordering system: ties together the restriction analyses (§IV),
/// the legal-mode machinery (§V) and the Markov-chain order search (§VI)
/// into a source-to-source transformation preserving set-equivalence.
class Reorderer {
 public:
  explicit Reorderer(term::TermStore* store,
                     ReorderOptions options = ReorderOptions())
      : store_(store), options_(options) {}

  /// Transforms `original`. The result program answers the same queries
  /// (same answer sets, possibly different order); queries must go through
  /// the original predicate names, which become dispatchers when
  /// specialization is on. Derives the program's facts and runs it as one
  /// group with no callees.
  prore::Result<ReorderResult> Run(const reader::Program& original);

  /// Transforms one dependency group: `cone` holds the clauses of the
  /// group and of its callee cone; the callees' clauses serve only the
  /// legality oracle and the cost of modes they did not publish. The
  /// predicates of `group.callees`
  /// were transformed by earlier runs: they are neither built nor emitted;
  /// calls to them go to the published versions, and the cost model
  /// prices them with the published statistics — so the output equals
  /// that part of one run over the whole program.
  prore::Result<ReorderResult> Run(const reader::Program& cone,
                                   const GroupContext& group);

  /// Name of the specialized version of `id` for `mode`, e.g. aunt_iu.
  static std::string VersionName(const term::TermStore& store,
                                 const term::PredId& id,
                                 const analysis::Mode& mode);

 private:
  term::TermStore* store_;
  ReorderOptions options_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_REORDERER_H_
