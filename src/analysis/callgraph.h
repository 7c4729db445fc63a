#ifndef PRORE_ANALYSIS_CALLGRAPH_H_
#define PRORE_ANALYSIS_CALLGRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis {

using PredSet = std::unordered_set<term::PredId, term::PredIdHash>;

/// Static call graph of a program: which user predicates call which, which
/// built-ins appear where, entry points, and the SCC decomposition that
/// yields the recursive-predicate set (paper §IV-D.7: "we can easily detect
/// recursion automatically ... traverse the program top-down").
class CallGraph {
 public:
  /// Builds the graph. Bodies that the body parser rejects (variable goals)
  /// make the whole build fail — the paper excludes such programs.
  static prore::Result<CallGraph> Build(const term::TermStore& store,
                                        const reader::Program& program);

  /// User predicates `caller` calls directly (built-ins excluded).
  const std::vector<term::PredId>& Callees(const term::PredId& caller) const;

  /// Built-in predicates `caller` calls directly.
  const std::vector<term::PredId>& BuiltinCallees(
      const term::PredId& caller) const;

  /// Predicates of the program not called by any other program predicate
  /// (the paper's "entry or top-level" predicates).
  const std::vector<term::PredId>& EntryPoints() const { return entries_; }

  /// Predicates involved in recursion: self-recursive or in a cycle.
  bool IsRecursive(const term::PredId& id) const {
    return recursive_.count(id) > 0;
  }

  /// Strongly connected components in reverse topological order (callees
  /// before callers) — the order bottom-up cost propagation wants.
  const std::vector<std::vector<term::PredId>>& SccsBottomUp() const {
    return sccs_;
  }

  /// All predicates defined by the program, in source order.
  const std::vector<term::PredId>& Preds() const { return preds_; }

 private:
  std::vector<term::PredId> preds_;
  std::unordered_map<term::PredId, std::vector<term::PredId>, term::PredIdHash>
      callees_;
  std::unordered_map<term::PredId, std::vector<term::PredId>, term::PredIdHash>
      builtin_callees_;
  std::vector<term::PredId> entries_;
  PredSet recursive_;
  std::vector<std::vector<term::PredId>> sccs_;
};

/// The SCC condensation of the call graph as an executable partition: every
/// group is one strongly connected component, groups appear in topological
/// order (callees before callers — the order the bottom-up analyses want),
/// and `deps[i]` names the groups that group i calls into directly. Groups
/// whose dependency cones are disjoint are independent, so the parallel
/// pipeline can transform them concurrently; within a group the predicates
/// are mutually recursive and must be analyzed together.
struct DependencyGroups {
  /// One entry per SCC, topologically ordered (callees first). Predicate
  /// order within a group follows Tarjan's emission, which is deterministic
  /// for a given program.
  std::vector<std::vector<term::PredId>> groups;
  /// Direct callee groups of group i (deduplicated, sorted ascending; every
  /// entry is < i because groups are topologically ordered).
  std::vector<std::vector<size_t>> deps;
  /// Group index of every defined predicate.
  std::unordered_map<term::PredId, size_t, term::PredIdHash> group_of;

  /// All groups reachable from group i through `deps` (i excluded), sorted
  /// ascending — the dependency cone whose definitions group i's analyses
  /// need to see.
  std::vector<size_t> TransitiveDeps(size_t i) const;

  size_t size() const { return groups.size(); }
};

/// Condenses `graph` into dependency groups (vlog's computeRelianceGroups
/// over the reliance graph, applied to the predicate call graph).
DependencyGroups ComputeDependencyGroups(const CallGraph& graph);

}  // namespace prore::analysis

#endif  // PRORE_ANALYSIS_CALLGRAPH_H_
