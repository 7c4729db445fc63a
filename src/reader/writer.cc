#include "reader/writer.h"

#include <cctype>

#include "common/str_util.h"
#include "term/symbol.h"

namespace prore::reader {

namespace {

using term::SymbolTable;
using term::Tag;
using term::TermRef;
using term::TermStore;

bool IsLetterAtom(const std::string& name) {
  if (name.empty() || !std::islower(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

bool IsSymbolChar(char c) {
  switch (c) {
    case '#': case '$': case '&': case '*': case '+': case '-': case '.':
    case '/': case ':': case '<': case '=': case '>': case '?': case '@':
    case '^': case '~': case '\\':
      return true;
    default:
      return false;
  }
}

bool IsSymbolAtom(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!IsSymbolChar(c)) return false;
  }
  return true;
}

bool NeedsQuotes(const std::string& name) {
  if (IsLetterAtom(name) || IsSymbolAtom(name)) return false;
  if (name == "[]" || name == "{}" || name == "!" || name == ";") return false;
  return true;
}

std::string QuoteAtom(const std::string& name, bool quoted) {
  if (!quoted || !NeedsQuotes(name)) return name;
  std::string out = "'";
  for (char c : name) {
    if (c == '\'') {
      out += "\\'";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('\'');
  return out;
}

class Writer {
 public:
  Writer(const TermStore& store, const WriteOptions& opts)
      : store_(store), opts_(opts) {}

  void Write(TermRef t, int max_priority, std::string* out) {
    t = store_.Deref(t);
    switch (store_.tag(t)) {
      case Tag::kVar: {
        const std::string& name = store_.var_name(t);
        if (opts_.var_names && !name.empty()) {
          out->append(name);
        } else {
          out->append(prore::StrFormat("_G%u", store_.var_id(t)));
        }
        return;
      }
      case Tag::kInt: {
        int64_t v = store_.int_value(t);
        if (v < 0 && max_priority < 200) {
          out->push_back('(');
          out->append(std::to_string(v));
          out->push_back(')');
        } else {
          out->append(std::to_string(v));
        }
        return;
      }
      case Tag::kFloat: {
        double v = store_.float_value(t);
        std::string text = prore::StrFormat("%g", v);
        // Keep it re-readable as a float.
        if (text.find('.') == std::string::npos &&
            text.find('e') == std::string::npos &&
            text.find("inf") == std::string::npos &&
            text.find("nan") == std::string::npos) {
          text += ".0";
        }
        if (v < 0 && max_priority < 200) {
          out->push_back('(');
          out->append(text);
          out->push_back(')');
        } else {
          out->append(text);
        }
        return;
      }
      case Tag::kAtom: {
        const std::string& name = store_.symbols().Name(store_.symbol(t));
        // A bare operator atom in an operand position needs parentheses.
        if (ops_.IsOp(name) && max_priority < 1200) {
          int p = 0;
          if (auto d = ops_.Infix(name); d.has_value()) {
            p = std::max(p, d->priority);
          }
          if (auto d = ops_.Prefix(name); d.has_value()) {
            p = std::max(p, d->priority);
          }
          if (p > max_priority) {
            out->push_back('(');
            out->append(QuoteAtom(name, opts_.quoted));
            out->push_back(')');
            return;
          }
        }
        out->append(QuoteAtom(name, opts_.quoted));
        return;
      }
      case Tag::kStruct:
        WriteStruct(t, max_priority, out);
        return;
    }
  }

 private:
  void WriteStruct(TermRef t, int max_priority, std::string* out) {
    const std::string& name = store_.symbols().Name(store_.symbol(t));
    uint32_t n = store_.arity(t);

    // Lists.
    if (opts_.use_lists && store_.symbol(t) == SymbolTable::kDot && n == 2) {
      WriteList(t, out);
      return;
    }
    // {Goal}.
    if (store_.symbol(t) == SymbolTable::kCurly && n == 1) {
      out->push_back('{');
      Write(store_.arg(t, 0), 1200, out);
      out->push_back('}');
      return;
    }
    if (opts_.use_operators && n == 2) {
      auto d = ops_.Infix(name);
      if (d.has_value()) {
        int p = d->priority;
        int left_max = d->type == OpType::kYfx ? p : p - 1;
        int right_max = d->type == OpType::kXfy ? p : p - 1;
        bool parens = p > max_priority;
        if (parens) out->push_back('(');
        std::string left_str, right_str;
        Write(store_.arg(t, 0), left_max, &left_str);
        Write(store_.arg(t, 1), right_max, &right_str);
        out->append(left_str);
        if (name == ",") {
          out->append(",");
        } else if (IsLetterAtom(name)) {
          out->push_back(' ');
          out->append(name);
          out->push_back(' ');
        } else {
          // Keep the compact form but insert a space wherever the operator
          // would otherwise fuse with an operand token: a symbol-char
          // neighbour, or a '(' (which would re-read as name(...)).
          if (!left_str.empty() && IsSymbolChar(left_str.back())) {
            out->push_back(' ');
          }
          out->append(name);
          if (!right_str.empty() &&
              (right_str[0] == '(' || IsSymbolChar(right_str[0]))) {
            out->push_back(' ');
          }
        }
        out->append(right_str);
        if (parens) out->push_back(')');
        return;
      }
    }
    if (opts_.use_operators && n == 1) {
      auto d = ops_.Prefix(name);
      if (d.has_value()) {
        int p = d->priority;
        int arg_max = d->type == OpType::kFy ? p : p - 1;
        bool parens = p > max_priority;
        if (parens) out->push_back('(');
        out->append(name);
        std::string arg_str;
        Write(store_.arg(t, 0), arg_max, &arg_str);
        // Space wherever operator and argument would fuse into one token:
        // letter operators always, symbolic operators before '-', '(' or
        // another symbol char.
        bool space = IsLetterAtom(name);
        if (!space && !arg_str.empty() &&
            (arg_str[0] == '(' || IsSymbolChar(arg_str[0]))) {
          space = true;
        }
        if (space) out->push_back(' ');
        out->append(arg_str);
        if (parens) out->push_back(')');
        return;
      }
    }
    // Canonical functor notation.
    out->append(QuoteAtom(name, opts_.quoted));
    out->push_back('(');
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0) out->push_back(',');
      Write(store_.arg(t, i), 999, out);
    }
    out->push_back(')');
  }

  void WriteList(TermRef t, std::string* out) {
    out->push_back('[');
    bool first = true;
    while (true) {
      t = store_.Deref(t);
      if (store_.IsCons(t)) {
        if (!first) out->push_back(',');
        Write(store_.arg(t, 0), 999, out);
        first = false;
        t = store_.arg(t, 1);
        continue;
      }
      if (store_.IsNil(t)) break;
      out->push_back('|');
      Write(t, 999, out);
      break;
    }
    out->push_back(']');
  }

  const TermStore& store_;
  const WriteOptions& opts_;
  const OpTable& ops_ = OpTable::Standard();
};

}  // namespace

std::string WriteTerm(const term::TermStore& store, term::TermRef t,
                      const WriteOptions& opts) {
  std::string out;
  Writer writer(store, opts);
  writer.Write(t, 1200, &out);
  return out;
}

std::string WriteClause(const term::TermStore& store, const Clause& clause,
                        const WriteOptions& opts) {
  std::string out;
  Writer writer(store, opts);
  writer.Write(clause.head, 1199, &out);
  term::TermRef body = store.Deref(clause.body);
  bool is_fact = store.tag(body) == term::Tag::kAtom &&
                 store.symbol(body) == term::SymbolTable::kTrue;
  if (!is_fact) {
    out.append(" :-\n");
    // Print top-level conjuncts one per line.
    std::vector<term::TermRef> goals;
    term::TermRef cur = body;
    while (true) {
      cur = store.Deref(cur);
      if (store.tag(cur) == term::Tag::kStruct &&
          store.symbol(cur) == term::SymbolTable::kComma &&
          store.arity(cur) == 2) {
        goals.push_back(store.arg(cur, 0));
        cur = store.arg(cur, 1);
      } else {
        goals.push_back(cur);
        break;
      }
    }
    for (size_t i = 0; i < goals.size(); ++i) {
      out.append("    ");
      writer.Write(goals[i], 999, &out);
      if (i + 1 < goals.size()) out.append(",\n");
    }
  }
  out.push_back('.');
  return out;
}

std::string WriteProgram(const term::TermStore& store, const Program& program,
                         const WriteOptions& opts) {
  std::string out;
  bool first = true;
  for (const term::PredId& id : program.pred_order()) {
    if (!first) out.push_back('\n');
    first = false;
    for (const Clause& clause : program.ClausesOf(id)) {
      out.append(WriteClause(store, clause, opts));
      out.push_back('\n');
    }
  }
  return out;
}

std::string PredName(const term::TermStore& store, const term::PredId& id) {
  return prore::StrFormat("%s/%u", store.symbols().Name(id.name).c_str(),
                          id.arity);
}

}  // namespace prore::reader
