#ifndef PRORE_CORE_UNFOLD_H_
#define PRORE_CORE_UNFOLD_H_

#include <cstdint>

#include "analysis/callgraph.h"
#include "common/result.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::core {

/// Options for the unfolding transformation (the paper's §VIII future-work
/// item, after Tamaki & Sato): "replacing [goals] with the goals of the
/// clauses of the predicates they call might greatly increase the
/// possibilities for reordering, especially when clauses of a program are
/// short".
struct UnfoldOptions {
  /// Repeat unfolding this many times (each round may expose new
  /// single-clause calls).
  size_t max_rounds = 2;
  /// Do not grow a clause body beyond this many top-level goals.
  size_t max_body_goals = 10;
  /// Predicates exempt from unfolding (the guarded pipeline's quarantine):
  /// they are never inlined into callers, and their own clauses are copied
  /// verbatim instead of being rewritten.
  analysis::PredSet skip;
};

/// Unfolds calls to predicates that can be inlined without changing
/// set-equivalence or side-effect order:
///   - exactly one clause (no clause choice to collapse),
///   - not recursive,
///   - clause body free of cuts (inlining would change the cut's scope).
/// Head unification is performed at transformation time on a fresh copy of
/// both the caller clause and the callee clause; if the head cannot unify,
/// the goal is replaced by `fail`. Only call sites are rewritten: every
/// predicate keeps its definition, so entry points stay callable.
///
/// The result is a new program over the same store (the originals are
/// untouched). Run the Reorderer on the result to exploit the extra
/// mobility.
prore::Result<reader::Program> UnfoldProgram(term::TermStore* store,
                                             const reader::Program& program,
                                             const UnfoldOptions& options =
                                                 UnfoldOptions());

}  // namespace prore::core

#endif  // PRORE_CORE_UNFOLD_H_
