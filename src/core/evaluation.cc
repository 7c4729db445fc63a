#include "core/evaluation.h"

#include <algorithm>

#include "analysis/modes.h"
#include "common/str_util.h"
#include "reader/parser.h"

namespace prore::core {

using term::TermRef;
using term::TermStore;

Evaluator::Evaluator(TermStore* store, const reader::Program& original,
                     const reader::Program& reordered,
                     engine::SolveOptions solve_options)
    : store_(store),
      original_(original),
      reordered_(reordered),
      solve_options_(solve_options) {}

prore::Status Evaluator::Init() {
  PRORE_ASSIGN_OR_RETURN(original_db_,
                         engine::Database::Build(store_, original_));
  PRORE_ASSIGN_OR_RETURN(reordered_db_,
                         engine::Database::Build(store_, reordered_));
  initialized_ = true;
  return prore::Status::OK();
}

prore::Result<ComparisonResult> Evaluator::CompareQueries(
    const std::vector<std::string>& goals) {
  if (!initialized_) PRORE_RETURN_IF_ERROR(Init());
  ComparisonResult out;
  engine::Machine original_machine(store_, &original_db_, solve_options_);
  engine::Machine reordered_machine(store_, &reordered_db_, solve_options_);
  std::vector<std::string> original_answers, reordered_answers;
  for (const std::string& text : goals) {
    ++out.queries_run;
    // Parse twice so the two runs do not share variables.
    PRORE_ASSIGN_OR_RETURN(reader::ReadTerm q1,
                           reader::ParseQueryText(store_, text + "."));
    PRORE_ASSIGN_OR_RETURN(auto a1,
                           original_machine.SolveToStrings(q1.term, q1.term));
    PRORE_ASSIGN_OR_RETURN(reader::ReadTerm q2,
                           reader::ParseQueryText(store_, text + "."));
    PRORE_ASSIGN_OR_RETURN(auto a2,
                           reordered_machine.SolveToStrings(q2.term, q2.term));
    original_answers.insert(original_answers.end(), a1.begin(), a1.end());
    reordered_answers.insert(reordered_answers.end(), a2.begin(), a2.end());
  }
  out.original_calls = original_machine.total_metrics().TotalCalls();
  out.reordered_calls = reordered_machine.total_metrics().TotalCalls();
  out.original_answers = original_answers.size();
  out.reordered_answers = reordered_answers.size();
  std::sort(original_answers.begin(), original_answers.end());
  std::sort(reordered_answers.begin(), reordered_answers.end());
  out.set_equivalent = original_answers == reordered_answers;
  return out;
}

prore::Result<ComparisonResult> Evaluator::CompareQuery(
    const std::string& query_text) {
  return CompareQueries({query_text});
}

prore::Result<ComparisonResult> Evaluator::CompareMode(
    const std::string& name, uint32_t arity, const std::string& mode,
    const std::vector<std::string>& universe) {
  PRORE_ASSIGN_OR_RETURN(analysis::Mode m, analysis::ModeFromString(mode));
  if (m.size() != arity) {
    return prore::Status::InvalidArgument(
        "mode string arity does not match predicate arity");
  }
  if (universe.empty() &&
      std::count(m.begin(), m.end(), analysis::ModeItem::kPlus) > 0) {
    return prore::Status::InvalidArgument(
        "CompareMode: '+' positions require a non-empty universe");
  }
  return CompareQueries(analysis::ModeQueries(name, m, universe));
}

}  // namespace prore::core
