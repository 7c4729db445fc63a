#ifndef PRORE_ENGINE_PROFILE_H_
#define PRORE_ENGINE_PROFILE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "term/store.h"

namespace prore::engine {

/// Per-clause counters gathered while SolveOptions::profile is armed.
/// "try" counts head-unification attempts (after first-argument index
/// filtering — a clause the index skips was never tried), "entry" counts
/// successful head unifications (the body was entered), "first_exit"
/// counts entries that produced at least one solution, and "exit" counts
/// every solution the clause produced (redo re-exits included). The
/// empirical clause probabilities the cost model wants fall straight out:
/// P(clause succeeds | tried) = first_exit/try, head-match probability =
/// entry/try, expected solutions per try = exit/try.
struct ClauseCounts {
  uint64_t tries = 0;
  uint64_t entries = 0;
  uint64_t first_exits = 0;
  uint64_t exits = 0;
};

/// 4-port box-model counters for one predicate (Byrd's call/exit/redo/
/// fail), plus `succ` — the number of *calls* that exited at least once,
/// which is exactly the success probability numerator the Markov model
/// consumes (exit alone over-counts multi-solution calls).
struct PortCounts {
  uint64_t call = 0;
  uint64_t exit = 0;
  uint64_t redo = 0;
  uint64_t fail = 0;
  uint64_t succ = 0;
};

struct PredCounts {
  PortCounts ports;
  /// Indexed by the callee's clause position in the database at call time
  /// (== source clause order for static programs). Grown on demand.
  std::vector<ClauseCounts> clauses;
};

/// Accumulates execution counts for one or more Solves. Not thread-safe:
/// use one collector per Machine (nested findall machines share their
/// parent's pointer, which is safe — they run on the parent's thread).
///
/// Keys are PredIds of the machine's TermStore, so a collector must not
/// be shared across machines with unrelated stores (snapshot clones are
/// fine — CloneFrom preserves symbol numbering).
///
/// Port counts are exact for cut-free, exception-free executions. A cut
/// or an exception discards pending exit markers and choicepoints without
/// crossing their ports, so calls pruned that way under-report exit/fail;
/// callers treating the counts as probabilities should regard them as
/// frequencies of *observed* port crossings (docs/profile-format.md).
class ProfileCollector {
 public:
  void OnCall(const term::PredId& id) { ++Pred(id).ports.call; }

  void OnFail(const term::PredId& id) { ++Pred(id).ports.fail; }

  void OnRedo(const term::PredId& id) { ++Pred(id).ports.redo; }

  void OnClauseTry(const term::PredId& id, uint32_t clause_index) {
    ++Clause(id, clause_index).tries;
  }

  void OnClauseEnter(const term::PredId& id, uint32_t clause_index) {
    ++Clause(id, clause_index).entries;
  }

  void OnExit(const term::PredId& id, uint32_t clause_index,
              bool first_for_entry, bool first_for_call) {
    PredCounts& p = Pred(id);
    ++p.ports.exit;
    if (first_for_call) {
      ++p.ports.succ;
    } else {
      // A non-first exit of the same call means the engine re-entered the
      // box after an exit: a redo that reached the exit port again.
      ++p.ports.redo;
    }
    ClauseCounts& c = Clause(id, clause_index);
    ++c.exits;
    if (first_for_entry) ++c.first_exits;
  }

  /// Builtins get call/exit/fail only (they are deterministic in this
  /// engine — no redo port) and no clause breakdown.
  void OnBuiltin(const term::PredId& id, bool success) {
    PredCounts& p = builtins_[id];
    ++p.ports.call;
    if (success) {
      ++p.ports.exit;
      ++p.ports.succ;
    } else {
      ++p.ports.fail;
    }
  }

  using Map =
      std::unordered_map<term::PredId, PredCounts, term::PredIdHash>;

  const Map& preds() const { return preds_; }
  const Map& builtins() const { return builtins_; }

  bool empty() const { return preds_.empty() && builtins_.empty(); }

 private:
  PredCounts& Pred(const term::PredId& id) { return preds_[id]; }

  ClauseCounts& Clause(const term::PredId& id, uint32_t clause_index) {
    PredCounts& p = preds_[id];
    if (p.clauses.size() <= clause_index) p.clauses.resize(clause_index + 1);
    return p.clauses[clause_index];
  }

  Map preds_;
  Map builtins_;
};

}  // namespace prore::engine

#endif  // PRORE_ENGINE_PROFILE_H_
