#ifndef PRORE_COST_COST_MODEL_H_
#define PRORE_COST_COST_MODEL_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/absint/determinism.h"
#include "analysis/body.h"
#include "analysis/callgraph.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/watchdog.h"
#include "markov/chain.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::cost {

/// Everything the Markov-chain reorderer needs to know about calling a
/// predicate in a particular mode (paper §VI-A.4 and §VI-B.2: "probabilities
/// and costs ... declared or inferred").
struct PredModeStats {
  /// P(at least one solution).
  double success_prob = 0.5;
  /// Expected number of solutions over full backtracking.
  double expected_solutions = 1.0;
  /// Expected calls until the first solution or failure.
  double cost_single = 1.0;
  /// Expected calls to exhaust the predicate.
  double cost_all = 1.0;
};

/// Empirical statistics for one clause, distilled from a recorded
/// execution profile (src/profile/ builds these from the engine's
/// port counts). All rates are per *try* — conditioned on the clause
/// being reached after first-argument index filtering.
struct EmpiricalClauseStats {
  double match_prob = 0.0;         ///< P(head unifies | tried)
  double success_prob = 0.0;       ///< P(>= 1 solution | tried)
  double expected_solutions = 0.0; ///< solutions per try
  uint64_t tries = 0;              ///< sample size behind the rates
};

/// Empirical statistics for one predicate. Aggregated over every call
/// mode seen while recording (the profile format is mode-blind; the
/// static model stays responsible for mode-dependent cost estimates).
struct EmpiricalPredStats {
  double success_prob = 0.5;       ///< P(call exits at least once)
  double expected_solutions = 1.0; ///< exit-port crossings per call
  uint64_t calls = 0;              ///< sample size behind the rates
  /// Indexed by the predicate's *original* clause order. Empty, or
  /// ignored wholesale when its length disagrees with the program's
  /// current clause count (a staleness guard of last resort — the
  /// content-hash check in src/profile/ should already have dropped
  /// such predicates).
  std::vector<EmpiricalClauseStats> clauses;
};

/// Everything a profile contributes to the cost model: measured
/// probabilities for user predicates and builtins that appeared in a
/// recorded run. Predicates absent here silently keep the static model —
/// the per-predicate fallback ladder the reorderer documents.
struct EmpiricalProfile {
  std::unordered_map<term::PredId, EmpiricalPredStats, term::PredIdHash>
      preds;
  std::unordered_map<term::PredId, EmpiricalPredStats, term::PredIdHash>
      builtins;
};

/// Expected cost of calling a predicate once, trying clauses in order until
/// one succeeds, *including* the all-fail path:
///   sum_k [prod_{j<k}(1-p_j)] p_k C_k  +  [prod_j (1-p_j)] C_n,
/// with C_k the cumulative cost of the first k clauses. This extends the
/// paper's Fig. 1 formula (which conditions on success) with the failure
/// residual so it can serve as a call cost.
double ExpectedSingleCallCost(const std::vector<double>& success_prob,
                              const std::vector<double>& cost);

/// Result of evaluating one candidate ordering of body elements.
struct BlockEval {
  bool legal = true;                 ///< every call satisfied its demands
  markov::ChainAnalysis chain;       ///< chain over the elements, in order
  analysis::AbstractEnv env_after;   ///< abstract bindings after the block
  std::vector<markov::GoalStats> goal_stats;  ///< per element, in order
};

/// Cost/probability database for a program: Warren-style statistics for
/// fact predicates, a hand-written table for built-ins, Markov-chain
/// propagation for rules (bottom-up over the SCC condensation), `:- prob` /
/// `:- cost` declarations for recursive predicates that resist analysis.
///
/// The reorderer overrides a predicate's stats after improving it, so
/// callers higher in the call graph are costed against the reordered
/// version (paper Fig. 3's upward information flow).
class CostModel {
 public:
  CostModel(const term::TermStore* store, const reader::Program* program,
            const analysis::CallGraph* graph,
            const analysis::Declarations* decls,
            analysis::LegalityOracle* oracle);

  /// Stats for calling `id` in `call_mode`. Never fails: unknown
  /// predicates get defaults; infinities are clamped.
  PredModeStats StatsFor(const term::PredId& id, const analysis::Mode& mode);

  /// Pins the stats of (id, mode), e.g. after the predicate was reordered.
  void SetOverride(const term::PredId& id, const analysis::Mode& mode,
                   const PredModeStats& stats);

  /// Every memoized statistic, keyed "name/arity:mode-suffix".
  const std::unordered_map<std::string, PredModeStats>& memo() const {
    return memo_;
  }
  /// Seeds the memo with statistics settled by another model over the
  /// same predicates (a callee group's summary, core/reorderer.h).
  void Preload(
      const std::vector<std::pair<std::string, PredModeStats>>& stats) {
    memo_.insert(stats.begin(), stats.end());
  }

  /// Feeds determinism/cardinality bounds into every subsequent StatsFor
  /// and SetOverride: a provably failing (pred, mode) gets success_prob and
  /// expected_solutions 0, a det/semidet one has expected_solutions clamped
  /// to at most 1. Only *upper* bounds are applied — those transfer to any
  /// call at least as bound as an analyzed pattern, so the clamp is sound
  /// wherever the heuristic estimates are used. Must be set before the
  /// first StatsFor (results are memoized); nullptr detaches. The analysis
  /// must outlive the model.
  void SetDeterminism(const analysis::absint::DeterminismAnalysis* det) {
    determinism_ = det;
  }

  /// Feeds recorded frequencies into every subsequent StatsFor: predicates
  /// (and builtins) present in `profile` get measured success
  /// probabilities and solution counts in place of the static guesses;
  /// everything else keeps the static model. Empirical data also takes
  /// precedence over `:- prob` / `:- cost` declarations — measurements
  /// beat assertions. Must be set before the first StatsFor (results are
  /// memoized); nullptr detaches. The profile must outlive the model.
  void SetEmpirical(const EmpiricalProfile* profile) { empirical_ = profile; }

  /// The armed profile's entry for `id`, or null when no profile is armed
  /// or it has no data for `id` — callers (clause ordering) fall back to
  /// the static estimate per predicate.
  const EmpiricalPredStats* EmpiricalFor(const term::PredId& id) const;

  /// Stats for one body element (call / negation / disjunction / ...)
  /// under `env`. For kCall this is StatsFor of the callee in the goal's
  /// current mode; control constructs combine their children.
  PredModeStats NodeStats(const analysis::BodyNode& node,
                          const analysis::AbstractEnv& env);

  /// Evaluates a sequence of body elements in the given order starting
  /// from `start`: legality of each call, the absorbing-chain analysis of
  /// the sequence, and the abstract environment after it.
  prore::Result<BlockEval> EvaluateSequence(
      const std::vector<const analysis::BodyNode*>& order,
      const analysis::AbstractEnv& start);

  /// Warren-style head-match probability: for each '+' call position whose
  /// head argument is nonvariable, multiply by 1/|domain of that position|
  /// (domain = distinct principal functors across the predicate's clauses).
  double HeadMatchProb(const term::PredId& id, term::TermRef head,
                       const analysis::Mode& call_mode);

  /// Expected number of clause-head matches for a call in `mode`
  /// (Warren's "number of alternatives" factor, §I-E).
  double ExpectedMatches(const term::PredId& id, const analysis::Mode& mode);

  /// Applies a node's effect on the abstract environment (bindings) —
  /// public so the reorderer can thread environments through emission.
  void AdvanceEnv(const analysis::BodyNode& node, analysis::AbstractEnv* env) {
    ApplyNode(node, env);
  }

  /// Guards every subsequent EvaluateSequence with a step/wall-clock
  /// budget: one step per evaluated body element. Once tripped, evaluation
  /// fails fast with kResourceExhausted
  /// (resource_error(watchdog(cost_model))) — which the goal-order search
  /// and clause ordering propagate — so a pathologically expensive cost
  /// query degrades instead of hanging. The goal-order search is covered
  /// transitively: every candidate it scores goes through here.
  void ArmWatchdog(const prore::WatchdogBudget& budget,
                   const prore::ExecContext& exec = {}) {
    watchdog_.Arm(budget, "cost_model", exec);
  }
  const prore::Watchdog& watchdog() const { return watchdog_; }

 private:
  struct Domains {
    /// Distinct ground keys per argument position; 0 means "some clause
    /// has a variable there" (matches everything).
    std::vector<size_t> distinct;
    std::vector<bool> any_var;
    size_t num_clauses = 0;
  };

  const Domains& DomainsFor(const term::PredId& id);
  PredModeStats ComputePredStats(const term::PredId& id,
                                 const analysis::Mode& mode);
  PredModeStats BuiltinStats(const std::string& name, uint32_t arity,
                             const analysis::Mode& mode);
  /// Applies the absint cardinality bounds (if any) to `s` in place.
  void ClampWithDeterminism(const term::PredId& id,
                            const analysis::Mode& mode, PredModeStats* s);
  /// Applies a node's effect on the abstract environment (bindings).
  void ApplyNode(const analysis::BodyNode& node, analysis::AbstractEnv* env);
  /// True if every call in the node is legal under env (recursing into
  /// control constructs with the appropriate sub-environments).
  bool NodeLegal(const analysis::BodyNode& node,
                 const analysis::AbstractEnv& env);

  std::string Key(const term::PredId& id, const analysis::Mode& mode) const;

  const term::TermStore* store_;
  const reader::Program* program_;
  const analysis::CallGraph* graph_;
  const analysis::Declarations* decls_;
  analysis::LegalityOracle* oracle_;
  const analysis::absint::DeterminismAnalysis* determinism_ = nullptr;
  const EmpiricalProfile* empirical_ = nullptr;

  prore::Watchdog watchdog_;
  std::unordered_map<std::string, PredModeStats> memo_;
  std::unordered_set<std::string> in_progress_;
  std::unordered_map<term::PredId, Domains, term::PredIdHash> domains_;
};

}  // namespace prore::cost

#endif  // PRORE_COST_COST_MODEL_H_
