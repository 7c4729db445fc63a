#ifndef PRORE_ANALYSIS_ABSINT_GROUNDNESS_H_
#define PRORE_ANALYSIS_ABSINT_GROUNDNESS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/absint/solver.h"
#include "analysis/body.h"
#include "analysis/callgraph.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis::absint {

/// Groundness/success-pattern summary of one (predicate, call pattern):
/// the argument modes a *successful* call is guaranteed to leave behind
/// (def-style per-argument approximation), and whether success is possible
/// at all. `can_succeed == false` is the optimistic bottom — "no evidence
/// of success yet" during the fixpoint, "provably always fails" once it
/// stabilizes (the PL200 signal).
struct GroundnessValue {
  Mode success;
  bool can_succeed = false;

  bool operator==(const GroundnessValue&) const = default;
};

/// The groundness domain for the absint Solver. Transfer abstractly runs
/// every clause of the predicate under the call pattern (the same
/// AbstractEnv threading mode inference uses), reading callee success
/// patterns through the solver's memo table instead of a local fixpoint,
/// and joins the per-clause success patterns pointwise. A clause whose
/// body reaches a callee that cannot succeed contributes nothing.
class GroundnessDomain {
 public:
  using Value = GroundnessValue;

  GroundnessDomain(const term::TermStore* store,
                   const reader::Program* program);

  Value Bottom(const term::PredId& id, const Mode& pattern) const;
  Value Top(const term::PredId& id, const Mode& pattern) const;
  Value Join(const Value& a, const Value& b) const;
  Value Widen(const Value& a, const Value& b) const;
  bool Equal(const Value& a, const Value& b) const;
  prore::Result<Value> Transfer(const term::PredId& id, const Mode& pattern,
                                const Lookup<Value>& lookup);

 private:
  /// Abstractly executes `node`, updating `env` and `*may_succeed` (false
  /// once control cannot flow past the node). Callee summaries come from
  /// `lookup` for program predicates, the builtin/library mode tables
  /// otherwise.
  prore::Status WalkBody(const BodyNode& node, AbstractEnv* env,
                         bool* may_succeed, const Lookup<Value>& lookup);

  /// Parsed bodies of `id`, cached across fixpoint iterations.
  prore::Result<const std::vector<std::unique_ptr<BodyNode>>*> BodiesOf(
      const term::PredId& id);

  const term::TermStore* store_;
  const reader::Program* program_;
  BuiltinModes builtin_modes_;
  ModeTable library_modes_;
  std::unordered_map<term::PredId, std::vector<std::unique_ptr<BodyNode>>,
                     term::PredIdHash>
      bodies_;
};

/// Published groundness results, detached from the solver: canonical-key
/// ordered summaries plus the call patterns discovered per predicate.
struct GroundnessSummaries {
  std::map<std::string, GroundnessValue> by_key;
  std::map<std::string, CallKey> keys;

  const GroundnessValue* Find(const term::TermStore& store,
                              const term::PredId& id,
                              const Mode& pattern) const;

  /// Success mode valid for a call at least as bound as some analyzed
  /// pattern: the pointwise meet over every applicable summary, applied to
  /// the call mode. nullopt when no summary applies (or none can succeed).
  std::optional<Mode> SuccessModeFor(const term::TermStore& store,
                                     const term::PredId& id,
                                     const Mode& call_mode) const;
};

}  // namespace prore::analysis::absint

#endif  // PRORE_ANALYSIS_ABSINT_GROUNDNESS_H_
