#ifndef PRORE_READER_PROGRAM_H_
#define PRORE_READER_PROGRAM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "term/store.h"

namespace prore::reader {

/// A position in the source text, 1-based. line == 0 means "unknown"
/// (e.g. a term synthesized by a transformation rather than parsed).
struct SourceSpan {
  int line = 0;
  int column = 0;

  bool known() const { return line > 0; }
  bool operator==(const SourceSpan&) const = default;
};

/// One clause, split at the neck: `head :- body.`; facts have body = true.
/// Head and body share variables (they were renamed apart from other
/// clauses when read in).
struct Clause {
  term::TermRef head = term::kNullTerm;
  term::TermRef body = term::kNullTerm;  ///< atom `true` for facts
  /// Position of the clause's first token in the source it was parsed
  /// from; unknown for synthesized clauses.
  SourceSpan span;
};

/// A parsed Prolog program: predicates in first-appearance order, each with
/// its clauses in source order, plus the directives (`:- goal.`) in order.
class Program {
 public:
  /// Appends a clause, creating its predicate on first sight.
  /// Returns false if `head` is not callable.
  bool AddClause(const term::TermStore& store, const Clause& clause);

  void AddDirective(term::TermRef goal) { directives_.push_back(goal); }

  const std::vector<term::PredId>& pred_order() const { return pred_order_; }

  bool Has(const term::PredId& id) const { return preds_.count(id) > 0; }

  const std::vector<Clause>& ClausesOf(const term::PredId& id) const;
  std::vector<Clause>* MutableClausesOf(const term::PredId& id);

  const std::vector<term::TermRef>& directives() const { return directives_; }

  size_t NumPreds() const { return pred_order_.size(); }
  size_t NumClauses() const;

  // ---- Source spans ---------------------------------------------------------
  // The parser records where each parsed term came from, keyed by TermRef
  // (terms are immutable, so the key is stable). Diagnostics look spans up
  // here; terms created by transformations simply have no entry.

  void SetTermSpans(std::unordered_map<term::TermRef, SourceSpan> spans) {
    term_spans_ = std::move(spans);
  }

  /// Span of a parsed term; an unknown (line 0) span if never recorded.
  SourceSpan TermSpan(term::TermRef t) const {
    auto it = term_spans_.find(t);
    return it == term_spans_.end() ? SourceSpan{} : it->second;
  }

 private:
  std::vector<term::PredId> pred_order_;
  std::unordered_map<term::PredId, std::vector<Clause>, term::PredIdHash>
      preds_;
  std::vector<term::TermRef> directives_;
  std::unordered_map<term::TermRef, SourceSpan> term_spans_;
};

}  // namespace prore::reader

#endif  // PRORE_READER_PROGRAM_H_
