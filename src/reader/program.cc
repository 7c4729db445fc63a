#include "reader/program.h"

#include <cassert>

namespace prore::reader {

bool Program::AddClause(const term::TermStore& store, const Clause& clause) {
  term::TermRef head = store.Deref(clause.head);
  if (!store.IsCallable(head)) return false;
  term::PredId id = store.pred_id(head);
  auto it = preds_.find(id);
  if (it == preds_.end()) {
    pred_order_.push_back(id);
    preds_.emplace(id, std::vector<Clause>{clause});
  } else {
    it->second.push_back(clause);
  }
  return true;
}

const std::vector<Clause>& Program::ClausesOf(const term::PredId& id) const {
  // Function-local static reference: trivially-destructible static storage.
  static const auto& kEmpty = *new std::vector<Clause>();
  auto it = preds_.find(id);
  return it == preds_.end() ? kEmpty : it->second;
}

std::vector<Clause>* Program::MutableClausesOf(const term::PredId& id) {
  auto it = preds_.find(id);
  return it == preds_.end() ? nullptr : &it->second;
}

size_t Program::NumClauses() const {
  size_t n = 0;
  for (const auto& [id, clauses] : preds_) n += clauses.size();
  return n;
}

}  // namespace prore::reader
