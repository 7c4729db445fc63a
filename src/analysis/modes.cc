#include "analysis/modes.h"

#include <algorithm>

#include "common/str_util.h"

namespace prore::analysis {

using term::PredId;
using term::Tag;
using term::TermRef;
using term::TermStore;

char ModeItemChar(ModeItem m) {
  switch (m) {
    case ModeItem::kPlus:
      return '+';
    case ModeItem::kMinus:
      return '-';
    case ModeItem::kAny:
      return '?';
  }
  return '?';
}

std::string ModeString(const Mode& mode) {
  std::string out = "(";
  for (size_t i = 0; i < mode.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back(ModeItemChar(mode[i]));
  }
  out.push_back(')');
  return out;
}

std::string ModeSuffix(const Mode& mode) {
  // The paper's Fig. 7 naming: i for instantiated, u for uninstantiated.
  // '?' positions get 'a' (any).
  std::string out;
  for (ModeItem m : mode) {
    switch (m) {
      case ModeItem::kPlus:
        out.push_back('i');
        break;
      case ModeItem::kMinus:
        out.push_back('u');
        break;
      case ModeItem::kAny:
        out.push_back('a');
        break;
    }
  }
  return out;
}

prore::Result<Mode> ModeFromString(const std::string& s) {
  Mode mode;
  for (char c : s) {
    switch (c) {
      case '+':
        mode.push_back(ModeItem::kPlus);
        break;
      case '-':
        mode.push_back(ModeItem::kMinus);
        break;
      case '?':
        mode.push_back(ModeItem::kAny);
        break;
      case '(':
      case ')':
      case ',':
      case ' ':
        break;
      default:
        return prore::Status::InvalidArgument(
            prore::StrFormat("bad mode character '%c' in \"%s\"", c,
                             s.c_str()));
    }
  }
  return mode;
}

std::vector<std::string> ModeQueries(const std::string& pred, const Mode& mode,
                                     const std::vector<std::string>& universe) {
  const size_t plus = std::count(mode.begin(), mode.end(), ModeItem::kPlus);
  std::vector<std::string> goals;
  if (plus > 0 && universe.empty()) return goals;
  std::vector<size_t> idx(plus, 0);  // an odometer over the '+' positions
  while (true) {
    std::string goal = pred;
    if (!mode.empty()) {
      goal += "(";
      size_t plus_seen = 0;
      for (size_t i = 0; i < mode.size(); ++i) {
        if (i > 0) goal += ",";
        goal += mode[i] == ModeItem::kPlus ? universe[idx[plus_seen++]]
                                           : prore::StrFormat("V%zu", i);
      }
      goal += ")";
    }
    goals.push_back(std::move(goal));
    size_t k = 0;
    while (k < idx.size() && ++idx[k] == universe.size()) idx[k++] = 0;
    if (k == idx.size()) return goals;
  }
}

bool SatisfiesInput(const Mode& call_mode, const Mode& input) {
  if (call_mode.size() != input.size()) return false;
  for (size_t i = 0; i < input.size(); ++i) {
    if (input[i] == ModeItem::kPlus && call_mode[i] != ModeItem::kPlus) {
      return false;
    }
  }
  return true;
}

Mode ApplyOutput(const Mode& call_mode, const Mode& output) {
  Mode out(call_mode.size());
  for (size_t i = 0; i < call_mode.size(); ++i) {
    if (call_mode[i] == ModeItem::kPlus || output[i] == ModeItem::kPlus) {
      out[i] = ModeItem::kPlus;
    } else if (call_mode[i] == ModeItem::kMinus &&
               output[i] == ModeItem::kMinus) {
      out[i] = ModeItem::kMinus;
    } else {
      out[i] = ModeItem::kAny;
    }
  }
  return out;
}

// ---- ModeTable --------------------------------------------------------------

void ModeTable::Add(const PredId& id, const ModePair& pair) {
  auto& list = pairs_[id];
  for (ModePair& existing : list) {
    if (existing.input == pair.input) {
      // Merge: both guarantees hold, take the stronger one pointwise.
      for (size_t i = 0; i < existing.output.size(); ++i) {
        if (pair.output[i] == ModeItem::kPlus) {
          existing.output[i] = ModeItem::kPlus;
        } else if (existing.output[i] != ModeItem::kPlus &&
                   existing.output[i] != pair.output[i]) {
          existing.output[i] = ModeItem::kAny;
        }
      }
      return;
    }
  }
  list.push_back(pair);
}

size_t ModeTable::Tighten(const PredId& id, const ModePair& pair) {
  auto& list = pairs_[id];
  for (ModePair& existing : list) {
    if (existing.input == pair.input) {
      size_t upgraded = 0;
      for (size_t i = 0; i < existing.output.size(); ++i) {
        if (existing.output[i] == ModeItem::kAny &&
            pair.output[i] != ModeItem::kAny) {
          existing.output[i] = pair.output[i];
          ++upgraded;
        }
      }
      return upgraded;
    }
  }
  size_t informative = 0;
  for (ModeItem m : pair.output) {
    if (m != ModeItem::kAny) ++informative;
  }
  list.push_back(pair);
  return informative;
}

const std::vector<ModePair>& ModeTable::PairsFor(const PredId& id) const {
  static const auto& kEmpty = *new std::vector<ModePair>();
  auto it = pairs_.find(id);
  return it == pairs_.end() ? kEmpty : it->second;
}

bool ModeTable::IsLegalCall(const PredId& id, const Mode& call_mode) const {
  for (const ModePair& pair : PairsFor(id)) {
    if (SatisfiesInput(call_mode, pair.input)) return true;
  }
  return false;
}

namespace {
std::optional<Mode> OutputOverPairs(const std::vector<ModePair>& pairs,
                                    const Mode& call_mode) {
  // Each matched pair's guarantee holds, so guarantees combine pointwise
  // by taking the most instantiated ('+' beats '-', '-' only if every
  // matching pair says '-').
  bool any = false;
  Mode combined(call_mode.size(), ModeItem::kMinus);
  for (const ModePair& pair : pairs) {
    if (!SatisfiesInput(call_mode, pair.input)) continue;
    if (!any) {
      combined = pair.output;
      any = true;
      continue;
    }
    for (size_t i = 0; i < combined.size(); ++i) {
      if (pair.output[i] == ModeItem::kPlus) {
        combined[i] = ModeItem::kPlus;
      } else if (combined[i] != ModeItem::kPlus &&
                 combined[i] != pair.output[i]) {
        combined[i] = ModeItem::kAny;
      }
    }
  }
  if (!any) return std::nullopt;
  return ApplyOutput(call_mode, combined);
}
}  // namespace

std::optional<Mode> ModeTable::OutputFor(const PredId& id,
                                         const Mode& call_mode) const {
  return OutputOverPairs(PairsFor(id), call_mode);
}

// ---- BuiltinModes -------------------------------------------------------------

void BuiltinModes::Add(const std::string& name, uint32_t arity,
                       const std::string& input, const std::string& output) {
  auto in = ModeFromString(input);
  auto out = ModeFromString(output);
  pairs_[Key{name, arity}].push_back(
      ModePair{std::move(in).value(), std::move(out).value()});
}

BuiltinModes::BuiltinModes() {
  // Unification: one ground side grounds the other; nothing guaranteed
  // otherwise (the reorderer special-cases =/2 via ApplyUnification).
  Add("=", 2, "(+,?)", "(+,+)");
  Add("=", 2, "(?,+)", "(+,+)");
  Add("=", 2, "(?,?)", "(?,?)");
  Add("\\=", 2, "(?,?)", "(?,?)");
  // Structural comparison: mode-dependent tests, bind nothing.
  for (const char* n : {"==", "\\==", "@<", "@>", "@=<", "@>="}) {
    Add(n, 2, "(?,?)", "(?,?)");
  }
  Add("compare", 3, "(?,?,?)", "(+,?,?)");
  // Type tests: accept anything, bind nothing.
  for (const char* n : {"var", "nonvar", "atom", "integer", "number",
                        "atomic", "compound", "callable", "ground",
                        "is_list"}) {
    Add(n, 1, "(?)", "(?)");
  }
  // Arithmetic demands a ground expression.
  Add("is", 2, "(?,+)", "(+,+)");
  for (const char* n : {"<", ">", "=<", ">=", "=:=", "=\\="}) {
    Add(n, 2, "(+,+)", "(+,+)");
  }
  // Term construction/inspection (paper's functor/3 example, §V-B).
  Add("functor", 3, "(+,?,?)", "(+,+,+)");
  Add("functor", 3, "(?,+,+)", "(?,+,+)");
  Add("arg", 3, "(+,+,?)", "(+,+,?)");
  Add("=..", 2, "(+,?)", "(+,+)");
  Add("=..", 2, "(?,+)", "(?,+)");
  Add("copy_term", 2, "(?,?)", "(?,?)");
  // I/O.
  Add("write", 1, "(?)", "(?)");
  Add("print", 1, "(?)", "(?)");
  Add("writeln", 1, "(?)", "(?)");
  Add("nl", 0, "()", "()");
  Add("tab", 1, "(+)", "(+)");
  // All-solutions predicates: the goal argument must be callable; the
  // collected list is a list of copies (ground only if the template is).
  Add("findall", 3, "(?,+,?)", "(?,+,?)");
  Add("bagof", 3, "(?,+,?)", "(?,+,?)");
  Add("setof", 3, "(?,+,?)", "(?,+,?)");
  Add("sort", 2, "(+,?)", "(+,+)");
  Add("msort", 2, "(+,?)", "(+,+)");
  // Atom/string built-ins.
  Add("atom_length", 2, "(+,?)", "(+,+)");
  Add("atom_codes", 2, "(+,?)", "(+,+)");
  Add("atom_codes", 2, "(?,+)", "(+,+)");
  Add("atom_chars", 2, "(+,?)", "(+,+)");
  Add("atom_chars", 2, "(?,+)", "(+,+)");
  Add("char_code", 2, "(+,?)", "(+,+)");
  Add("char_code", 2, "(?,+)", "(+,+)");
  Add("number_codes", 2, "(+,?)", "(+,+)");
  Add("number_codes", 2, "(?,+)", "(+,+)");
  Add("atom_concat", 3, "(+,+,?)", "(+,+,+)");
  Add("succ", 2, "(+,?)", "(+,+)");
  Add("succ", 2, "(?,+)", "(+,+)");
}

const std::vector<ModePair>& BuiltinModes::PairsFor(const std::string& name,
                                                    uint32_t arity) const {
  static const auto& kEmpty = *new std::vector<ModePair>();
  auto it = pairs_.find(Key{name, arity});
  return it == pairs_.end() ? kEmpty : it->second;
}

bool BuiltinModes::IsLegalCall(const std::string& name, uint32_t arity,
                               const Mode& call_mode) const {
  const auto& pairs = PairsFor(name, arity);
  if (pairs.empty()) return true;  // unknown builtin: no demands recorded
  for (const ModePair& pair : pairs) {
    if (SatisfiesInput(call_mode, pair.input)) return true;
  }
  return false;
}

std::optional<Mode> BuiltinModes::OutputFor(const std::string& name,
                                            uint32_t arity,
                                            const Mode& call_mode) const {
  return OutputOverPairs(PairsFor(name, arity), call_mode);
}

// ---- ModeOfTerm / AbstractEnv --------------------------------------------------

ModeItem ModeOfTerm(const TermStore& store, TermRef t) {
  t = store.Deref(t);
  if (store.tag(t) == Tag::kVar) return ModeItem::kMinus;
  return store.IsGround(t) ? ModeItem::kPlus : ModeItem::kAny;
}

VarState AbstractEnv::Get(uint32_t var_id) const {
  auto it = states_.find(var_id);
  return it == states_.end() ? VarState::kFree : it->second;
}

void AbstractEnv::Set(uint32_t var_id, VarState s) {
  if (s == VarState::kFree) {
    states_.erase(var_id);  // normalize: absent == free
  } else {
    states_[var_id] = s;
  }
}

ModeItem AbstractEnv::ModeOf(const TermStore& store, TermRef t) const {
  t = store.Deref(t);
  if (store.tag(t) == Tag::kVar) {
    switch (Get(store.var_id(t))) {
      case VarState::kGround:
        return ModeItem::kPlus;
      case VarState::kFree:
        return ModeItem::kMinus;
      case VarState::kUnknown:
        return ModeItem::kAny;
    }
  }
  std::vector<TermRef> vars;
  store.CollectVars(t, &vars);
  if (vars.empty()) return ModeItem::kPlus;
  for (TermRef v : vars) {
    if (Get(store.var_id(v)) != VarState::kGround) return ModeItem::kAny;
  }
  return ModeItem::kPlus;
}

Mode AbstractEnv::CallModeOf(const TermStore& store, TermRef goal) const {
  goal = store.Deref(goal);
  Mode mode(store.arity(goal));
  for (uint32_t i = 0; i < store.arity(goal); ++i) {
    mode[i] = ModeOf(store, store.arg(goal, i));
  }
  return mode;
}

void AbstractEnv::ApplyCallOutput(const TermStore& store, TermRef goal,
                                  const Mode& output) {
  goal = store.Deref(goal);
  for (uint32_t i = 0; i < store.arity(goal) && i < output.size(); ++i) {
    std::vector<TermRef> vars;
    store.CollectVars(store.arg(goal, i), &vars);
    for (TermRef v : vars) {
      uint32_t id = store.var_id(v);
      switch (output[i]) {
        case ModeItem::kPlus:
          Set(id, VarState::kGround);
          break;
        case ModeItem::kAny:
          if (Get(id) == VarState::kFree) Set(id, VarState::kUnknown);
          break;
        case ModeItem::kMinus:
          break;  // untouched
      }
    }
  }
}

void AbstractEnv::ApplyUnification(const TermStore& store, TermRef lhs,
                                   TermRef rhs) {
  ModeItem ml = ModeOf(store, lhs);
  ModeItem mr = ModeOf(store, rhs);
  auto ground_side = [&](TermRef t) {
    std::vector<TermRef> vars;
    store.CollectVars(t, &vars);
    for (TermRef v : vars) Set(store.var_id(v), VarState::kGround);
  };
  auto unknown_side = [&](TermRef t) {
    std::vector<TermRef> vars;
    store.CollectVars(t, &vars);
    for (TermRef v : vars) {
      if (Get(store.var_id(v)) == VarState::kFree) {
        Set(store.var_id(v), VarState::kUnknown);
      }
    }
  };
  if (ml == ModeItem::kPlus && mr != ModeItem::kPlus) {
    ground_side(rhs);
  } else if (mr == ModeItem::kPlus && ml != ModeItem::kPlus) {
    ground_side(lhs);
  } else if (ml != ModeItem::kPlus || mr != ModeItem::kPlus) {
    // Neither side ground: the sides alias; anything free may get bound.
    unknown_side(lhs);
    unknown_side(rhs);
  }
}

AbstractEnv AbstractEnv::Join(const AbstractEnv& a, const AbstractEnv& b) {
  AbstractEnv out;
  auto merge = [&](uint32_t id) {
    VarState sa = a.Get(id), sb = b.Get(id);
    out.Set(id, sa == sb ? sa : VarState::kUnknown);
  };
  for (const auto& kv : a.states_) merge(kv.first);
  for (const auto& kv : b.states_) {
    if (a.states_.count(kv.first) == 0) merge(kv.first);
  }
  return out;
}

// ---- Declarations ---------------------------------------------------------------

namespace {
prore::Result<Mode> ModeFromSpecTerm(const TermStore& store, TermRef spec) {
  spec = store.Deref(spec);
  Mode mode;
  for (uint32_t i = 0; i < store.arity(spec); ++i) {
    TermRef a = store.Deref(store.arg(spec, i));
    if (store.tag(a) != Tag::kAtom) {
      return prore::Status::InvalidArgument(
          "mode item must be one of the atoms +, -, ?");
    }
    const std::string& n = store.symbols().Name(store.symbol(a));
    if (n == "+") {
      mode.push_back(ModeItem::kPlus);
    } else if (n == "-") {
      mode.push_back(ModeItem::kMinus);
    } else if (n == "?") {
      mode.push_back(ModeItem::kAny);
    } else {
      return prore::Status::InvalidArgument("bad mode item atom: " + n);
    }
  }
  return mode;
}

prore::Result<PredId> PredIdFromIndicator(const TermStore& store, TermRef t) {
  t = store.Deref(t);
  if (store.tag(t) == Tag::kStruct && store.arity(t) == 2 &&
      store.symbols().Name(store.symbol(t)) == "/") {
    TermRef name = store.Deref(store.arg(t, 0));
    TermRef arity = store.Deref(store.arg(t, 1));
    if (store.tag(name) == Tag::kAtom && store.tag(arity) == Tag::kInt) {
      return PredId{store.symbol(name),
                    static_cast<uint32_t>(store.int_value(arity))};
    }
  }
  return prore::Status::InvalidArgument(
      "expected a name/arity predicate indicator");
}
}  // namespace

prore::Result<Declarations> ParseDeclarations(const TermStore& store,
                                              const reader::Program& program) {
  Declarations decls;
  for (TermRef d : program.directives()) {
    d = store.Deref(d);
    if (store.tag(d) != Tag::kStruct) continue;
    const std::string& name = store.symbols().Name(store.symbol(d));
    uint32_t arity = store.arity(d);
    if (name == "legal_mode" && arity == 2) {
      TermRef in_spec = store.Deref(store.arg(d, 0));
      TermRef out_spec = store.Deref(store.arg(d, 1));
      if (!store.IsCallable(in_spec) || !store.IsCallable(out_spec) ||
          !(store.pred_id(in_spec) == store.pred_id(out_spec))) {
        return prore::Status::InvalidArgument(
            "legal_mode/2: both specs must name the same predicate");
      }
      PRORE_ASSIGN_OR_RETURN(Mode in, ModeFromSpecTerm(store, in_spec));
      PRORE_ASSIGN_OR_RETURN(Mode out, ModeFromSpecTerm(store, out_spec));
      decls.legal_modes.Add(store.pred_id(in_spec), ModePair{in, out});
    } else if (name == "mode" && arity == 1) {
      TermRef spec = store.Deref(store.arg(d, 0));
      if (!store.IsCallable(spec)) {
        return prore::Status::InvalidArgument("mode/1: bad specification");
      }
      PRORE_ASSIGN_OR_RETURN(Mode in, ModeFromSpecTerm(store, spec));
      // DEC-10 style declaration: treat as a legal input mode whose output
      // instantiates nothing beyond the input ('-' may still get bound).
      Mode out(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] == ModeItem::kPlus ? ModeItem::kPlus : ModeItem::kAny;
      }
      decls.legal_modes.Add(store.pred_id(spec), ModePair{in, out});
    } else if (name == "entry" && arity == 1) {
      PRORE_ASSIGN_OR_RETURN(PredId id,
                             PredIdFromIndicator(store, store.arg(d, 0)));
      decls.entries.push_back(id);
    } else if (name == "recursive" && arity == 1) {
      PRORE_ASSIGN_OR_RETURN(PredId id,
                             PredIdFromIndicator(store, store.arg(d, 0)));
      decls.recursive.push_back(id);
    } else if ((name == "prob" || name == "cost") && arity == 2) {
      PRORE_ASSIGN_OR_RETURN(PredId id,
                             PredIdFromIndicator(store, store.arg(d, 0)));
      TermRef v = store.Deref(store.arg(d, 1));
      double value = 0.0;
      if (store.tag(v) == Tag::kInt) {
        value = static_cast<double>(store.int_value(v));
      } else if (store.tag(v) == Tag::kFloat) {
        value = store.float_value(v);
      } else {
        return prore::Status::InvalidArgument(name +
                                              "/2: value must be a number");
      }
      if (name == "prob") {
        decls.success_probs[id] = value;
      } else {
        decls.costs[id] = value;
      }
    }
    // Other directives are not ours; ignore.
  }
  return decls;
}

}  // namespace prore::analysis
