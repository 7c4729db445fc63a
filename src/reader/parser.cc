#include "reader/parser.h"

#include <cassert>
#include <memory>

#include "common/str_util.h"

namespace prore::reader {

using term::SymbolTable;
using term::TermRef;

prore::Status Parser::ErrorHere(const std::string& what) const {
  return prore::Status::ParseError(prore::StrFormat(
      "%s at line %d column %d (near '%s')", what.c_str(), Cur().line,
      Cur().column, Cur().text.c_str()));
}

term::TermRef Parser::VarFor(const std::string& name) {
  if (name == "_") {
    // Each _ is distinct, and named from its clause (_G0, _G1, ..., never a
    // spelling the clause uses): the clause then renders the same in every
    // store and re-reads as itself.
    std::string spelling;
    do {
      spelling = prore::StrFormat("_G%zu", next_anonymous_++);
    } while (clause_spellings_.count(spelling) > 0);
    return store_->MakeVar(spelling);
  }
  auto it = clause_vars_.find(name);
  if (it != clause_vars_.end()) return it->second;
  TermRef v = store_->MakeVar(name);
  clause_vars_.emplace(name, v);
  var_order_.emplace_back(name, v);
  return v;
}

void Parser::BeginClause() {
  clause_vars_.clear();
  var_order_.clear();
  clause_spellings_.clear();
  next_anonymous_ = 0;
  for (size_t i = tpos_; i < tokens_.size(); ++i) {
    if (tokens_[i].kind == TokenKind::kEnd) break;
    if (tokens_[i].kind == TokenKind::kVariable) {
      clause_spellings_.insert(tokens_[i].text);
    }
  }
}

namespace {
// Priority tracking for the precedence-climbing loop.
struct PriorityHolder {
  int value = 0;
};
}  // namespace

// The priority of the most recent ParsePrimary/ParseTerm result. Operator
// parsing is strictly sequential, so a member is safe.
static thread_local PriorityHolder g_last_priority;

prore::Result<TermRef> Parser::ParsePrimary(int max_priority) {
  const Token tok = Cur();
  switch (tok.kind) {
    case TokenKind::kInteger: {
      Bump();
      g_last_priority.value = 0;
      TermRef t = store_->MakeInt(std::stoll(tok.text));
      NoteSpan(t, tok);
      return t;
    }
    case TokenKind::kFloat: {
      Bump();
      g_last_priority.value = 0;
      TermRef t = store_->MakeFloat(std::stod(tok.text));
      NoteSpan(t, tok);
      return t;
    }
    case TokenKind::kVariable: {
      Bump();
      g_last_priority.value = 0;
      TermRef t = VarFor(tok.text);
      NoteSpan(t, tok);  // first occurrence wins
      return t;
    }
    case TokenKind::kPunct: {
      if (tok.text == "(") {
        Bump();
        PRORE_ASSIGN_OR_RETURN(TermRef inner, ParseTerm(1200));
        if (Cur().kind != TokenKind::kPunct || Cur().text != ")") {
          return ErrorHere("expected ')'");
        }
        Bump();
        g_last_priority.value = 0;
        return inner;
      }
      if (tok.text == "[") {
        Bump();
        PRORE_ASSIGN_OR_RETURN(TermRef list, ParseList());
        NoteSpan(list, tok);
        return list;
      }
      if (tok.text == "{") {
        Bump();
        PRORE_ASSIGN_OR_RETURN(TermRef inner, ParseTerm(1200));
        if (Cur().kind != TokenKind::kPunct || Cur().text != "}") {
          return ErrorHere("expected '}'");
        }
        Bump();
        g_last_priority.value = 0;
        const TermRef args[] = {inner};
        TermRef t = store_->MakeStruct(SymbolTable::kCurly, args);
        NoteSpan(t, tok);
        return t;
      }
      return ErrorHere("unexpected token");
    }
    case TokenKind::kAtom: {
      term::Symbol sym = store_->symbols().Intern(tok.text);
      if (tok.functor_paren) {
        Bump();  // atom
        Bump();  // '('
        PRORE_ASSIGN_OR_RETURN(TermRef t, ParseArgList(sym));
        NoteSpan(t, tok);
        return t;
      }
      // Prefix operator?
      auto prefix = ops_->Prefix(tok.text);
      if (prefix.has_value() && prefix->priority <= max_priority) {
        const Token& next = Next();
        bool operand_follows =
            next.kind == TokenKind::kInteger ||
            next.kind == TokenKind::kFloat ||
            next.kind == TokenKind::kVariable ||
            (next.kind == TokenKind::kAtom) ||
            (next.kind == TokenKind::kPunct &&
             (next.text == "(" || next.text == "[" || next.text == "{"));
        // An atom that is *also* usable standalone: if the next token is an
        // infix operator atom (and not a prefix one), treat this atom as an
        // operand instead (e.g. the query `X == (-)` is exotic; we favor
        // the common case).
        if (operand_follows && next.kind == TokenKind::kAtom &&
            !next.functor_paren) {
          bool next_is_infix_only = ops_->Infix(next.text).has_value() &&
                                    !ops_->Prefix(next.text).has_value();
          if (next_is_infix_only) operand_follows = false;
        }
        if (operand_follows) {
          Bump();
          // Negative numeric literal: -42 or -3.5.
          if (tok.text == "-" && Cur().kind == TokenKind::kInteger) {
            int64_t v = std::stoll(Cur().text);
            Bump();
            g_last_priority.value = 0;
            TermRef t = store_->MakeInt(-v);
            NoteSpan(t, tok);
            return t;
          }
          if (tok.text == "-" && Cur().kind == TokenKind::kFloat) {
            double v = std::stod(Cur().text);
            Bump();
            g_last_priority.value = 0;
            TermRef t = store_->MakeFloat(-v);
            NoteSpan(t, tok);
            return t;
          }
          int arg_max = prefix->type == OpType::kFy ? prefix->priority
                                                    : prefix->priority - 1;
          PRORE_ASSIGN_OR_RETURN(TermRef arg, ParseTerm(arg_max));
          g_last_priority.value = prefix->priority;
          const TermRef args[] = {arg};
          TermRef t = store_->MakeStruct(sym, args);
          NoteSpan(t, tok);
          return t;
        }
      }
      // Plain atom (possibly an operator name used as an atom). An operator
      // used as a bare operand carries the operator's priority, which keeps
      // it from becoming the argument of a tighter-binding operator.
      Bump();
      int p = 0;
      if (auto inf = ops_->Infix(tok.text); inf.has_value()) {
        p = std::max(p, inf->priority);
      }
      if (auto pre = ops_->Prefix(tok.text); pre.has_value()) {
        p = std::max(p, pre->priority);
      }
      g_last_priority.value = p;
      TermRef t = store_->MakeAtom(sym);
      NoteSpan(t, tok);
      return t;
    }
    case TokenKind::kEnd:
      return ErrorHere("unexpected end of clause");
    case TokenKind::kEof:
      return ErrorHere("unexpected end of input");
  }
  return ErrorHere("unexpected token");
}

prore::Result<TermRef> Parser::ParseArgList(term::Symbol functor) {
  std::vector<TermRef> args;
  while (true) {
    PRORE_ASSIGN_OR_RETURN(TermRef arg, ParseTerm(999));
    args.push_back(arg);
    if (Cur().kind == TokenKind::kPunct && Cur().text == ",") {
      Bump();
      continue;
    }
    if (Cur().kind == TokenKind::kPunct && Cur().text == ")") {
      Bump();
      g_last_priority.value = 0;
      return store_->MakeStruct(functor, args);
    }
    return ErrorHere("expected ',' or ')' in argument list");
  }
}

prore::Result<TermRef> Parser::ParseList() {
  if (Cur().kind == TokenKind::kPunct && Cur().text == "]") {
    Bump();
    g_last_priority.value = 0;
    return store_->MakeNil();
  }
  std::vector<TermRef> items;
  TermRef tail = term::kNullTerm;
  while (true) {
    PRORE_ASSIGN_OR_RETURN(TermRef item, ParseTerm(999));
    items.push_back(item);
    if (Cur().kind == TokenKind::kPunct && Cur().text == ",") {
      Bump();
      continue;
    }
    if (Cur().kind == TokenKind::kPunct && Cur().text == "|") {
      Bump();
      PRORE_ASSIGN_OR_RETURN(tail, ParseTerm(999));
      break;
    }
    break;
  }
  if (Cur().kind != TokenKind::kPunct || Cur().text != "]") {
    return ErrorHere("expected ']' to close list");
  }
  Bump();
  g_last_priority.value = 0;
  TermRef list = tail == term::kNullTerm ? store_->MakeNil() : tail;
  for (size_t i = items.size(); i-- > 0;) {
    list = store_->MakeCons(items[i], list);
  }
  return list;
}

prore::Result<TermRef> Parser::ParseTerm(int max_priority) {
  PRORE_ASSIGN_OR_RETURN(TermRef left, ParsePrimary(max_priority));
  int left_priority = g_last_priority.value;
  while (true) {
    std::string op_name;
    // At an operator position, an atom is an operator even when glued to a
    // '(' — `a->(b;c)` is infix '->' applied to the parenthesized term.
    if (Cur().kind == TokenKind::kAtom) {
      op_name = Cur().text;
    } else if (Cur().kind == TokenKind::kPunct && Cur().text == ",") {
      op_name = ',';  // single-char assign: GCC 12 -Wrestrict false positive
    } else {
      break;
    }
    auto infix = ops_->Infix(op_name);
    if (!infix.has_value()) break;
    int p = infix->priority;
    if (p > max_priority) break;
    int left_max = infix->type == OpType::kYfx ? p : p - 1;
    int right_max = infix->type == OpType::kXfy ? p : p - 1;
    if (left_priority > left_max) break;
    const Token op_tok = Cur();
    Bump();
    PRORE_ASSIGN_OR_RETURN(TermRef right, ParseTerm(right_max));
    term::Symbol sym = store_->symbols().Intern(op_name);
    const TermRef args[] = {left, right};
    left = store_->MakeStruct(sym, args);
    NoteSpan(left, op_tok);
    left_priority = p;
  }
  g_last_priority.value = left_priority;
  return left;
}

prore::Status Parser::ApplyOpDirective(term::TermRef goal) {
  term::TermRef prio = store_->Deref(store_->arg(goal, 0));
  term::TermRef type = store_->Deref(store_->arg(goal, 1));
  term::TermRef name = store_->Deref(store_->arg(goal, 2));
  if (store_->tag(prio) != term::Tag::kInt ||
      store_->tag(type) != term::Tag::kAtom ||
      store_->tag(name) != term::Tag::kAtom) {
    return prore::Status::InvalidArgument(
        "op/3: expected op(Priority, Type, Name) with an integer and two "
        "atoms");
  }
  int64_t p = store_->int_value(prio);
  if (p < 1 || p > 1200) {
    return prore::Status::InvalidArgument("op/3: priority out of 1..1200");
  }
  const std::string& type_name =
      store_->symbols().Name(store_->symbol(type));
  OpType op_type;
  if (type_name == "xfx") {
    op_type = OpType::kXfx;
  } else if (type_name == "xfy") {
    op_type = OpType::kXfy;
  } else if (type_name == "yfx") {
    op_type = OpType::kYfx;
  } else if (type_name == "fy") {
    op_type = OpType::kFy;
  } else if (type_name == "fx") {
    op_type = OpType::kFx;
  } else if (type_name == "xf") {
    op_type = OpType::kXf;
  } else if (type_name == "yf") {
    op_type = OpType::kYf;
  } else {
    return prore::Status::InvalidArgument("op/3: unknown type " + type_name);
  }
  if (local_ops_ == nullptr) {
    // Copy-on-write: the shared standard table stays untouched.
    local_ops_ = std::make_unique<OpTable>(*ops_);
    ops_ = local_ops_.get();
  }
  local_ops_->Add(store_->symbols().Name(store_->symbol(name)),
                  static_cast<int>(p), op_type);
  return prore::Status::OK();
}

prore::Status Parser::ParseClauseInto(Program* program) {
  BeginClause();
  const SourceSpan clause_span{Cur().line, Cur().column};
  PRORE_ASSIGN_OR_RETURN(TermRef t, ParseTerm(1200));
  if (Cur().kind != TokenKind::kEnd) {
    return ErrorHere("expected '.' at end of clause");
  }
  Bump();
  t = store_->Deref(t);
  // Directive?
  if (store_->tag(t) == term::Tag::kStruct &&
      store_->arity(t) == 1 &&
      (store_->symbols().Name(store_->symbol(t)) == ":-" ||
       store_->symbols().Name(store_->symbol(t)) == "?-")) {
    term::TermRef goal = store_->Deref(store_->arg(t, 0));
    // op/3 takes effect immediately for the rest of the file (the
    // classic behavior: subsequent clauses parse with the new operator).
    if (store_->tag(goal) == term::Tag::kStruct &&
        store_->arity(goal) == 3 &&
        store_->symbols().Name(store_->symbol(goal)) == "op") {
      PRORE_RETURN_IF_ERROR(ApplyOpDirective(goal));
    }
    program->AddDirective(goal);
    return prore::Status::OK();
  }
  PRORE_ASSIGN_OR_RETURN(Clause clause, SplitClause(store_, t));
  clause.span = clause_span;
  if (!program->AddClause(*store_, clause)) {
    return prore::Status::TypeError("clause head is not callable");
  }
  return prore::Status::OK();
}

prore::Result<Program> Parser::ParseProgram(std::string_view text) {
  Lexer lexer(text);
  PRORE_ASSIGN_OR_RETURN(tokens_, lexer.Tokenize());
  tpos_ = 0;
  spans_.clear();
  Program program;
  while (Cur().kind != TokenKind::kEof) {
    PRORE_RETURN_IF_ERROR(ParseClauseInto(&program));
  }
  program.SetTermSpans(std::move(spans_));
  spans_ = {};
  return program;
}

Program Parser::ParseProgramRecovering(std::string_view text,
                                       std::vector<prore::Status>* errors) {
  Lexer lexer(text);
  Program program;
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) {
    // Lexical errors have no clause boundary to resynchronize on.
    errors->push_back(tokens.status());
    return program;
  }
  tokens_ = std::move(tokens).value();
  tpos_ = 0;
  spans_.clear();
  while (Cur().kind != TokenKind::kEof) {
    const size_t start = tpos_;
    prore::Status status = ParseClauseInto(&program);
    if (status.ok()) continue;
    errors->push_back(std::move(status));
    // Resynchronize on the next '.' unless this clause's terminator was
    // already consumed (errors past the '.': bad head, bad directive).
    const bool past_end =
        tpos_ > start && tokens_[tpos_ - 1].kind == TokenKind::kEnd;
    if (!past_end) {
      while (Cur().kind != TokenKind::kEnd && Cur().kind != TokenKind::kEof) {
        Bump();
      }
      if (Cur().kind == TokenKind::kEnd) Bump();
    }
  }
  program.SetTermSpans(std::move(spans_));
  spans_ = {};
  return program;
}

prore::Result<std::vector<ReadTerm>> Parser::ParseTermSequenceText(
    std::string_view text) {
  Lexer lexer(text);
  PRORE_ASSIGN_OR_RETURN(tokens_, lexer.Tokenize());
  tpos_ = 0;
  std::vector<ReadTerm> out;
  while (Cur().kind != TokenKind::kEof) {
    BeginClause();
    const SourceSpan span{Cur().line, Cur().column};
    PRORE_ASSIGN_OR_RETURN(TermRef t, ParseTerm(1200));
    if (Cur().kind != TokenKind::kEnd) {
      return ErrorHere("expected '.' after term");
    }
    Bump();
    ReadTerm rt;
    rt.term = t;
    rt.var_names = var_order_;
    rt.span = span;
    out.push_back(std::move(rt));
  }
  return out;
}

prore::Result<ReadTerm> Parser::ParseTermText(std::string_view text) {
  Lexer lexer(text);
  PRORE_ASSIGN_OR_RETURN(tokens_, lexer.Tokenize());
  tpos_ = 0;
  BeginClause();
  const SourceSpan span{Cur().line, Cur().column};
  PRORE_ASSIGN_OR_RETURN(TermRef t, ParseTerm(1200));
  if (Cur().kind == TokenKind::kEnd) Bump();
  if (Cur().kind != TokenKind::kEof) {
    return ErrorHere("trailing input after term");
  }
  ReadTerm out;
  out.term = t;
  out.var_names = var_order_;
  out.span = span;
  return out;
}

prore::Result<Program> ParseProgramText(term::TermStore* store,
                                        std::string_view text) {
  OpTable ops;
  Parser parser(store, &ops);
  return parser.ParseProgram(text);
}

Program ParseProgramTextRecovering(term::TermStore* store,
                                   std::string_view text,
                                   std::vector<prore::Status>* errors) {
  OpTable ops;
  Parser parser(store, &ops);
  return parser.ParseProgramRecovering(text, errors);
}

prore::Result<ReadTerm> ParseQueryText(term::TermStore* store,
                                       std::string_view text) {
  OpTable ops;
  Parser parser(store, &ops);
  return parser.ParseTermText(text);
}

prore::Result<std::vector<ReadTerm>> ParseTermSequence(
    term::TermStore* store, std::string_view text) {
  OpTable ops;
  Parser parser(store, &ops);
  return parser.ParseTermSequenceText(text);
}

prore::Result<Clause> SplitClause(term::TermStore* store, term::TermRef t) {
  t = store->Deref(t);
  Clause c;
  if (store->tag(t) == term::Tag::kStruct && store->arity(t) == 2 &&
      store->symbol(t) == SymbolTable::kNeck) {
    c.head = store->Deref(store->arg(t, 0));
    c.body = store->Deref(store->arg(t, 1));
  } else {
    c.head = t;
    c.body = store->MakeAtom(SymbolTable::kTrue);
  }
  if (!store->IsCallable(c.head)) {
    return prore::Status::TypeError("clause head is not callable");
  }
  return c;
}

}  // namespace prore::reader
