#ifndef PRORE_ANALYSIS_ABSINT_ABSINT_H_
#define PRORE_ANALYSIS_ABSINT_ABSINT_H_

#include <cstdint>
#include <string>

#include "analysis/absint/determinism.h"
#include "analysis/absint/groundness.h"
#include "analysis/callgraph.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/watchdog.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis::absint {

struct AbsintOptions {
  /// Join rounds per key before widening at SCC heads.
  size_t widen_after = 4;
  /// Per-key update cap (forced Top past it).
  size_t max_updates_per_key = 64;
  /// Step/wall-clock budget, armed once per fixpoint (groundness and
  /// determinism each get the full budget; one step per Transfer). Zero
  /// fields disable it; a trip surfaces as kResourceExhausted carrying
  /// resource_error(watchdog(absint)) — the GuardedPipeline's signal to
  /// degrade to a no-absint run.
  prore::WatchdogBudget watchdog;
  /// Cancellation/deadline scope for the fixpoint; observed through the
  /// watchdog on every transfer even when the budget is unlimited.
  prore::ExecContext exec;
};

struct AbsintStats {
  size_t groundness_keys = 0;
  size_t groundness_transfers = 0;
  size_t determinism_keys = 0;
  size_t determinism_transfers = 0;
  size_t widenings = 0;
  size_t saturations = 0;
};

/// Everything the two fixpoints learned, detached from the solvers so it
/// can outlive them and cross thread boundaries by value.
struct AbsintResult {
  GroundnessSummaries groundness;
  DeterminismAnalysis determinism;
  AbsintStats stats;
};

/// Runs the groundness fixpoint, then the determinism fixpoint on top of
/// it, over the SCC condensation of `graph`. Seeds come from `modes`'
/// observed call patterns when available (so every pattern the reorderer
/// will ask about has a summary), falling back to the same entry-point
/// {+,-} enumeration mode inference uses. Deterministic for a given
/// program: the solver orders work by (dependency-group rank, canonical
/// key), independent of hash-map iteration order.
prore::Result<AbsintResult> RunAbsint(const term::TermStore& store,
                                      const reader::Program& program,
                                      const CallGraph& graph,
                                      const Declarations& decls,
                                      const ModeAnalysis* modes,
                                      const AbsintOptions& opts = {});

/// Folds groundness success patterns into `table` via ModeTable::Tighten.
/// Returns the number of argument positions that got a stronger guarantee
/// — each one potentially expands the legal-reordering set.
size_t TightenModes(const term::TermStore& store,
                    const GroundnessSummaries& groundness, ModeTable* table);

/// Deterministic text dump of both analyses (canonical key order), for
/// prore --report and prolint debugging.
std::string DumpAbsint(const AbsintResult& result);

}  // namespace prore::analysis::absint

#endif  // PRORE_ANALYSIS_ABSINT_ABSINT_H_
