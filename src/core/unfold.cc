#include "core/unfold.h"

#include <unordered_map>
#include <vector>

#include "analysis/body.h"
#include "analysis/callgraph.h"
#include "common/str_util.h"
#include "term/symbol.h"

namespace prore::core {

using analysis::BodyKind;
using analysis::BodyNode;
using term::PredId;
using term::SymbolTable;
using term::Tag;
using term::TermRef;
using term::TermStore;

namespace {

/// Transformation-time unification with an undo trail (no engine needed —
/// both sides are freshly renamed copies, so permanent bindings on success
/// are exactly the substitution we want baked into the emitted clause).
bool UnifyStatic(TermStore* store, TermRef a, TermRef b,
                 std::vector<TermRef>* trail) {
  a = store->Deref(a);
  b = store->Deref(b);
  if (a == b) return true;
  if (store->tag(a) == Tag::kVar) {
    store->BindVar(a, b);
    trail->push_back(a);
    return true;
  }
  if (store->tag(b) == Tag::kVar) {
    store->BindVar(b, a);
    trail->push_back(b);
    return true;
  }
  if (store->tag(a) != store->tag(b)) return false;
  switch (store->tag(a)) {
    case Tag::kAtom:
      return store->symbol(a) == store->symbol(b);
    case Tag::kInt:
      return store->int_value(a) == store->int_value(b);
    case Tag::kFloat:
      return store->float_value(a) == store->float_value(b);
    case Tag::kStruct: {
      if (store->symbol(a) != store->symbol(b) ||
          store->arity(a) != store->arity(b)) {
        return false;
      }
      for (uint32_t i = 0; i < store->arity(a); ++i) {
        if (!UnifyStatic(store, store->arg(a, i), store->arg(b, i), trail)) {
          return false;
        }
      }
      return true;
    }
    case Tag::kVar:
      return false;  // unreachable
  }
  return false;
}

void Unwind(TermStore* store, std::vector<TermRef>* trail, size_t mark) {
  while (trail->size() > mark) {
    store->ResetVar(trail->back());
    trail->pop_back();
  }
}

class Unfolder {
 public:
  Unfolder(TermStore* store, const reader::Program& program,
           const analysis::CallGraph& graph, const UnfoldOptions& options)
      : store_(store), program_(program), graph_(graph), options_(options) {}

  prore::Status DecideCandidates() {
    for (const PredId& pred : program_.pred_order()) {
      if (options_.skip.count(pred) > 0) continue;
      if (graph_.IsRecursive(pred)) continue;
      const auto& clauses = program_.ClausesOf(pred);
      if (clauses.size() != 1) continue;
      PRORE_ASSIGN_OR_RETURN(auto body,
                             analysis::ParseBody(*store_, clauses[0].body));
      if (ContainsCutAnywhere(*body)) continue;
      unfoldable_.insert(pred);
    }
    return prore::Status::OK();
  }

  bool IsUnfoldable(const PredId& id) const {
    return unfoldable_.count(id) > 0;
  }

  /// Rewrites one clause (must already be a fresh renamed copy): inlines
  /// unfoldable calls at every conjunction level. Returns the new body.
  prore::Result<TermRef> RewriteBody(TermRef body, size_t* budget) {
    body = store_->Deref(body);
    if (store_->tag(body) == Tag::kStruct) {
      term::Symbol sym = store_->symbol(body);
      uint32_t arity = store_->arity(body);
      if (sym == SymbolTable::kComma && arity == 2) {
        PRORE_ASSIGN_OR_RETURN(TermRef left,
                               RewriteBody(store_->arg(body, 0), budget));
        PRORE_ASSIGN_OR_RETURN(TermRef right,
                               RewriteBody(store_->arg(body, 1), budget));
        const TermRef args[] = {left, right};
        return store_->MakeStruct(SymbolTable::kComma, args);
      }
      if ((sym == SymbolTable::kSemicolon || sym == SymbolTable::kArrow) &&
          arity == 2) {
        // Do not unfold inside the committed premise of an if-then-else;
        // disjunction halves are fine.
        if (sym == SymbolTable::kSemicolon) {
          PRORE_ASSIGN_OR_RETURN(TermRef left,
                                 RewriteBody(store_->arg(body, 0), budget));
          PRORE_ASSIGN_OR_RETURN(TermRef right,
                                 RewriteBody(store_->arg(body, 1), budget));
          const TermRef args[] = {left, right};
          return store_->MakeStruct(sym, args);
        }
        PRORE_ASSIGN_OR_RETURN(TermRef then_part,
                               RewriteBody(store_->arg(body, 1), budget));
        const TermRef args[] = {store_->arg(body, 0), then_part};
        return store_->MakeStruct(sym, args);
      }
      if ((sym == SymbolTable::kNot ||
           store_->symbols().Name(sym) == "not") &&
          arity == 1) {
        PRORE_ASSIGN_OR_RETURN(TermRef inner,
                               RewriteBody(store_->arg(body, 0), budget));
        const TermRef args[] = {inner};
        return store_->MakeStruct(sym, args);
      }
    }
    // A plain goal: unfold?
    if (!store_->IsCallable(body)) return body;
    PredId callee = store_->pred_id(body);
    if (!IsUnfoldable(callee) || *budget == 0) return body;
    const reader::Clause& clause = program_.ClausesOf(callee)[0];
    std::unordered_map<uint32_t, TermRef> var_map;
    TermRef head_copy = store_->Rename(clause.head, &var_map);
    TermRef body_copy = store_->Rename(clause.body, &var_map);
    std::vector<TermRef> trail;
    if (!UnifyStatic(store_, body, head_copy, &trail)) {
      Unwind(store_, &trail, 0);
      return store_->MakeAtom(SymbolTable::kFail);
    }
    // Bindings stay: they are the substitution. Budget accounts for the
    // inlined goals.
    --*budget;
    return body_copy;
  }

 private:
  static bool ContainsCutAnywhere(const BodyNode& node) {
    if (node.kind == BodyKind::kCut) return true;
    for (const auto& child : node.children) {
      if (ContainsCutAnywhere(*child)) return true;
    }
    return false;
  }

  TermStore* store_;
  const reader::Program& program_;
  const analysis::CallGraph& graph_;
  const UnfoldOptions& options_;
  analysis::PredSet unfoldable_;
};

size_t CountTopGoals(const TermStore& store, TermRef body) {
  body = store.Deref(body);
  if (store.tag(body) == Tag::kStruct &&
      store.symbol(body) == SymbolTable::kComma && store.arity(body) == 2) {
    // Count both sides: earlier unfolding rounds leave conjunctions nested
    // on the left as well as the right.
    return CountTopGoals(store, store.arg(body, 0)) +
           CountTopGoals(store, store.arg(body, 1));
  }
  return 1;
}

/// The clause with its variables, all fresh from renaming, named from the
/// clause itself in first-occurrence order (_G0, _G1, ...), as the parser
/// names `_`: an unfolded clause then renders the same in every store.
reader::Clause NamedFromClause(TermStore* store, reader::Clause clause) {
  std::vector<TermRef> vars;
  store->CollectVars(clause.head, &vars);
  store->CollectVars(clause.body, &vars);
  std::unordered_map<uint32_t, TermRef> named;
  for (size_t i = 0; i < vars.size(); ++i) {
    named.emplace(store->var_id(vars[i]),
                  store->MakeVar(prore::StrFormat("_G%zu", i)));
  }
  clause.head = store->Rename(clause.head, &named);
  clause.body = store->Rename(clause.body, &named);
  return clause;
}

}  // namespace

prore::Result<reader::Program> UnfoldProgram(TermStore* store,
                                             const reader::Program& program,
                                             const UnfoldOptions& options) {
  reader::Program current;
  // Start from a verbatim copy.
  for (const PredId& pred : program.pred_order()) {
    for (const auto& clause : program.ClausesOf(pred)) {
      current.AddClause(*store, clause);
    }
  }
  for (TermRef d : program.directives()) current.AddDirective(d);

  for (size_t round = 0; round < options.max_rounds; ++round) {
    PRORE_ASSIGN_OR_RETURN(auto graph,
                           analysis::CallGraph::Build(*store, current));
    Unfolder unfolder(store, current, graph, options);
    PRORE_RETURN_IF_ERROR(unfolder.DecideCandidates());

    reader::Program next;
    bool changed = false;
    for (const PredId& pred : current.pred_order()) {
      if (options.skip.count(pred) > 0) {
        // Quarantined predicate: clauses pass through untouched.
        for (const auto& clause : current.ClausesOf(pred)) {
          next.AddClause(*store, clause);
        }
        continue;
      }
      for (const auto& clause : current.ClausesOf(pred)) {
        // Fresh copy of the whole clause so transformation-time bindings
        // never leak into the input program's terms.
        std::unordered_map<uint32_t, TermRef> var_map;
        reader::Clause copy;
        copy.head = store->Rename(clause.head, &var_map);
        copy.body = store->Rename(clause.body, &var_map);
        size_t current_goals = CountTopGoals(*store, copy.body);
        size_t budget = options.max_body_goals > current_goals
                            ? options.max_body_goals - current_goals
                            : 0;
        PRORE_ASSIGN_OR_RETURN(TermRef new_body,
                               unfolder.RewriteBody(copy.body, &budget));
        if (store->Equal(new_body, copy.body)) {
          next.AddClause(*store, clause);  // nothing inlined: as it was
          continue;
        }
        changed = true;
        copy.body = new_body;
        next.AddClause(*store, NamedFromClause(store, copy));
      }
    }
    for (TermRef d : current.directives()) next.AddDirective(d);
    current = std::move(next);
    if (!changed) break;
  }
  return current;
}

}  // namespace prore::core
