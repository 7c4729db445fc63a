#ifndef PRORE_READER_PARSER_H_
#define PRORE_READER_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "reader/lexer.h"
#include "reader/ops.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::reader {

/// A parsed top-level term plus the named variables it contains, in
/// first-occurrence order (for printing query answers).
struct ReadTerm {
  term::TermRef term = term::kNullTerm;
  std::vector<std::pair<std::string, term::TermRef>> var_names;
  SourceSpan span;  ///< position of the term's first token
};

/// Operator-precedence parser for the DEC-10 Prolog subset used throughout
/// the paper: clauses, facts, directives, lists, disjunction/if-then-else,
/// negation, arithmetic, quoted atoms. Variable goals and DCG rules are
/// parsed but rejected later by the analyses that cannot handle them.
class Parser {
 public:
  Parser(term::TermStore* store, const OpTable* ops)
      : store_(store), ops_(ops) {}

  /// Parses a whole program: clauses and `:- directive.` items.
  prore::Result<Program> ParseProgram(std::string_view text);

  /// Like ParseProgram, but recovers from clause-level syntax errors:
  /// each failed clause is skipped up to its terminating '.' and the error
  /// is appended to *errors, so a single bad clause no longer hides every
  /// later diagnostic. The returned program holds every clause that parsed.
  /// (A lexer error is not recoverable; it is reported and parsing stops.)
  Program ParseProgramRecovering(std::string_view text,
                                 std::vector<prore::Status>* errors);

  /// Parses a single term ending in '.' (e.g. a query body).
  prore::Result<ReadTerm> ParseTermText(std::string_view text);

  /// Parses a sequence of '.'-terminated terms.
  prore::Result<std::vector<ReadTerm>> ParseTermSequenceText(
      std::string_view text);

 private:
  // One clause's worth of parsing state (variables scoped per clause).
  prore::Result<term::TermRef> ParseTerm(int max_priority);
  /// Parses one '.'-terminated clause or directive into `program`.
  prore::Status ParseClauseInto(Program* program);
  prore::Result<term::TermRef> ParsePrimary(int max_priority);
  prore::Result<term::TermRef> ParseArgList(term::Symbol functor);
  prore::Result<term::TermRef> ParseList();
  term::TermRef VarFor(const std::string& name);
  /// Resets the per-clause variable scope before the clause starting at
  /// the current token.
  void BeginClause();
  /// Handles `:- op(Priority, Type, Name)` so later clauses parse with the
  /// user-declared operator (copy-on-write over the standard table).
  prore::Status ApplyOpDirective(term::TermRef goal);

  /// Records where `t` was parsed (first writer wins, so a variable keeps
  /// the position of its first occurrence in the clause).
  void NoteSpan(term::TermRef t, const Token& tok) {
    spans_.emplace(t, SourceSpan{tok.line, tok.column});
  }

  const Token& Cur() const { return tokens_[tpos_]; }
  const Token& Next() const {
    return tokens_[tpos_ + 1 < tokens_.size() ? tpos_ + 1 : tpos_];
  }
  void Bump() {
    if (tpos_ + 1 < tokens_.size()) ++tpos_;
  }
  prore::Status ErrorHere(const std::string& what) const;

  term::TermStore* store_;
  const OpTable* ops_;
  std::unique_ptr<OpTable> local_ops_;  // engaged after a :- op/3 directive
  std::vector<Token> tokens_;
  size_t tpos_ = 0;
  std::unordered_map<std::string, term::TermRef> clause_vars_;
  std::vector<std::pair<std::string, term::TermRef>> var_order_;
  /// Variable spellings of the current clause, and the counter naming its
  /// anonymous variables.
  std::unordered_set<std::string> clause_spellings_;
  size_t next_anonymous_ = 0;
  /// Source position of every term created while parsing, keyed by ref.
  /// ParseProgram moves this into the returned Program for diagnostics.
  std::unordered_map<term::TermRef, SourceSpan> spans_;
};

/// Convenience one-shots using the standard operator table.
prore::Result<Program> ParseProgramText(term::TermStore* store,
                                        std::string_view text);
Program ParseProgramTextRecovering(term::TermStore* store,
                                   std::string_view text,
                                   std::vector<prore::Status>* errors);
prore::Result<ReadTerm> ParseQueryText(term::TermStore* store,
                                       std::string_view text);

/// Parses a sequence of '.'-terminated terms (the shape read/1 consumes).
prore::Result<std::vector<ReadTerm>> ParseTermSequence(term::TermStore* store,
                                                       std::string_view text);

/// Splits a clause term into head/body at ':-'. A term without a neck is a
/// fact with body `true`. Returns error if head is not callable.
prore::Result<Clause> SplitClause(term::TermStore* store, term::TermRef t);

}  // namespace prore::reader

#endif  // PRORE_READER_PARSER_H_
