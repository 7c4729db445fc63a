#include "engine/builtins.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "common/str_util.h"
#include "engine/arith.h"
#include "engine/machine.h"
#include "reader/writer.h"

namespace prore::engine {

namespace {

using term::Tag;
using term::TermRef;
using term::TermStore;

TermRef Arg(Machine* m, TermRef goal, uint32_t i) {
  return m->store().Deref(m->store().arg(goal, i));
}

// ---- ISO error balls -------------------------------------------------------
// Every error a builtin raises is a structured, catchable term
// error(Payload, Context) delivered through the machine's exception
// machinery; see Machine::ThrowError.

prore::Status ThrowInstantiation(Machine* m, const char* context) {
  return m->ThrowError(m->store().MakeAtom("instantiation_error"), context);
}

prore::Status ThrowTypeError(Machine* m, const char* type, TermRef culprit,
                             const char* context) {
  TermStore& s = m->store();
  const TermRef args[] = {s.MakeAtom(type), culprit};
  return m->ThrowError(s.MakeStruct("type_error", args), context);
}

/// permission_error(modify, static_procedure, Name/Arity) — raised when a
/// snapshot-backed machine (immutable shared database) runs assert/retract.
prore::Status ThrowStaticProcedure(Machine* m, const term::PredId& id,
                                   const char* context) {
  TermStore& s = m->store();
  const TermRef ind_args[] = {s.MakeAtom(id.name),
                              s.MakeInt(static_cast<int64_t>(id.arity))};
  const TermRef args[] = {s.MakeAtom("modify"),
                          s.MakeAtom("static_procedure"),
                          s.MakeStruct("/", ind_args)};
  return m->ThrowError(s.MakeStruct("permission_error", args), context);
}

prore::Status ThrowDomainError(Machine* m, const char* domain,
                               TermRef culprit, const char* context) {
  TermStore& s = m->store();
  const TermRef args[] = {s.MakeAtom(domain), culprit};
  return m->ThrowError(s.MakeStruct("domain_error", args), context);
}

prore::Status ThrowRepresentationError(Machine* m, const char* flag,
                                       const char* context) {
  TermStore& s = m->store();
  const TermRef args[] = {s.MakeAtom(flag)};
  return m->ThrowError(s.MakeStruct("representation_error", args), context);
}

/// Converts a proper list to a vector; false if not a proper list.
bool ListToVector(const TermStore& store, TermRef list,
                  std::vector<TermRef>* out) {
  list = store.Deref(list);
  while (true) {
    if (store.IsNil(list)) return true;
    if (!store.IsCons(list)) return false;
    list = store.Deref(list);
    out->push_back(store.arg(list, 0));
    list = store.Deref(store.arg(list, 1));
  }
}

// ---- Unification and comparison -------------------------------------------

prore::Status BiUnify(Machine* m, TermRef g, bool* success) {
  *success = m->Unify(Arg(m, g, 0), Arg(m, g, 1));
  return prore::Status::OK();
}

prore::Status BiNotUnify(Machine* m, TermRef g, bool* success) {
  size_t mark = m->TrailMark();
  bool unifies = m->Unify(Arg(m, g, 0), Arg(m, g, 1));
  m->TrailUndo(mark);
  *success = !unifies;
  return prore::Status::OK();
}

prore::Status BiStructEq(Machine* m, TermRef g, bool* success) {
  *success = m->store().Equal(Arg(m, g, 0), Arg(m, g, 1));
  return prore::Status::OK();
}

prore::Status BiStructNeq(Machine* m, TermRef g, bool* success) {
  *success = !m->store().Equal(Arg(m, g, 0), Arg(m, g, 1));
  return prore::Status::OK();
}

template <int Lo, int Hi>
prore::Status BiTermOrder(Machine* m, TermRef g, bool* success) {
  int c = m->store().Compare(Arg(m, g, 0), Arg(m, g, 1));
  *success = c >= Lo && c <= Hi;
  return prore::Status::OK();
}

prore::Status BiCompare(Machine* m, TermRef g, bool* success) {
  int c = m->store().Compare(Arg(m, g, 1), Arg(m, g, 2));
  const char* rel = c < 0 ? "<" : (c == 0 ? "=" : ">");
  *success = m->Unify(Arg(m, g, 0), m->store().MakeAtom(rel));
  return prore::Status::OK();
}

// ---- Type tests ------------------------------------------------------------

prore::Status BiVar(Machine* m, TermRef g, bool* success) {
  *success = m->store().tag(Arg(m, g, 0)) == Tag::kVar;
  return prore::Status::OK();
}

prore::Status BiNonvar(Machine* m, TermRef g, bool* success) {
  *success = m->store().tag(Arg(m, g, 0)) != Tag::kVar;
  return prore::Status::OK();
}

prore::Status BiAtom(Machine* m, TermRef g, bool* success) {
  *success = m->store().tag(Arg(m, g, 0)) == Tag::kAtom;
  return prore::Status::OK();
}

prore::Status BiInteger(Machine* m, TermRef g, bool* success) {
  *success = m->store().tag(Arg(m, g, 0)) == Tag::kInt;
  return prore::Status::OK();
}

prore::Status BiFloat(Machine* m, TermRef g, bool* success) {
  *success = m->store().tag(Arg(m, g, 0)) == Tag::kFloat;
  return prore::Status::OK();
}

prore::Status BiNumber(Machine* m, TermRef g, bool* success) {
  Tag t = m->store().tag(Arg(m, g, 0));
  *success = t == Tag::kInt || t == Tag::kFloat;
  return prore::Status::OK();
}

prore::Status BiAtomic(Machine* m, TermRef g, bool* success) {
  Tag t = m->store().tag(Arg(m, g, 0));
  *success = t == Tag::kAtom || t == Tag::kInt || t == Tag::kFloat;
  return prore::Status::OK();
}

prore::Status BiCompound(Machine* m, TermRef g, bool* success) {
  *success = m->store().tag(Arg(m, g, 0)) == Tag::kStruct;
  return prore::Status::OK();
}

prore::Status BiCallable(Machine* m, TermRef g, bool* success) {
  *success = m->store().IsCallable(Arg(m, g, 0));
  return prore::Status::OK();
}

prore::Status BiGround(Machine* m, TermRef g, bool* success) {
  *success = m->store().IsGround(Arg(m, g, 0));
  return prore::Status::OK();
}

prore::Status BiIsList(Machine* m, TermRef g, bool* success) {
  std::vector<TermRef> ignored;
  *success = ListToVector(m->store(), Arg(m, g, 0), &ignored);
  return prore::Status::OK();
}

// ---- Arithmetic ------------------------------------------------------------

prore::Status BiIs(Machine* m, TermRef g, bool* success) {
  auto v = EvalArith(m->store(), Arg(m, g, 1));
  if (!v.ok()) return m->ThrowStatus(v.status(), "is/2");
  *success = m->Unify(Arg(m, g, 0), v->ToTerm(&m->store()));
  return prore::Status::OK();
}

template <typename Cmp>
prore::Status BiArithCompare(Machine* m, TermRef g, bool* success,
                             const char* context, Cmp cmp) {
  auto a = EvalArith(m->store(), Arg(m, g, 0));
  if (!a.ok()) return m->ThrowStatus(a.status(), context);
  auto b = EvalArith(m->store(), Arg(m, g, 1));
  if (!b.ok()) return m->ThrowStatus(b.status(), context);
  if (!a->is_float && !b->is_float) {
    *success = cmp(a->i, b->i);  // exact integer comparison
  } else {
    *success = cmp(a->AsDouble(), b->AsDouble());
  }
  return prore::Status::OK();
}

prore::Status BiLt(Machine* m, TermRef g, bool* success) {
  return BiArithCompare(m, g, success, "</2",
                        [](auto a, auto b) { return a < b; });
}
prore::Status BiGt(Machine* m, TermRef g, bool* success) {
  return BiArithCompare(m, g, success, ">/2",
                        [](auto a, auto b) { return a > b; });
}
prore::Status BiLe(Machine* m, TermRef g, bool* success) {
  return BiArithCompare(m, g, success, "=</2",
                        [](auto a, auto b) { return a <= b; });
}
prore::Status BiGe(Machine* m, TermRef g, bool* success) {
  return BiArithCompare(m, g, success, ">=/2",
                        [](auto a, auto b) { return a >= b; });
}
prore::Status BiArithEq(Machine* m, TermRef g, bool* success) {
  return BiArithCompare(m, g, success, "=:=/2",
                        [](auto a, auto b) { return a == b; });
}
prore::Status BiArithNeq(Machine* m, TermRef g, bool* success) {
  return BiArithCompare(m, g, success, "=\\=/2",
                        [](auto a, auto b) { return a != b; });
}

// ---- Term construction and inspection --------------------------------------

prore::Status BiFunctor(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef t = Arg(m, g, 0);
  TermRef name = Arg(m, g, 1);
  TermRef arity = Arg(m, g, 2);
  *success = false;
  switch (store.tag(t)) {
    case Tag::kAtom:
    case Tag::kInt:
    case Tag::kFloat:
      *success = m->Unify(name, t) && m->Unify(arity, store.MakeInt(0));
      return prore::Status::OK();
    case Tag::kStruct:
      *success = m->Unify(name, store.MakeAtom(store.symbol(t))) &&
                 m->Unify(arity, store.MakeInt(store.arity(t)));
      return prore::Status::OK();
    case Tag::kVar:
      break;
  }
  // Construction mode: functor(-T, +Name, +Arity).
  if (store.tag(arity) == Tag::kVar) {
    return ThrowInstantiation(m, "functor/3");
  }
  if (store.tag(arity) != Tag::kInt) {
    return ThrowTypeError(m, "integer", arity, "functor/3");
  }
  int64_t n = store.int_value(arity);
  if (n == 0) {
    if (store.tag(name) == Tag::kVar) {
      return ThrowInstantiation(m, "functor/3");
    }
    *success = m->Unify(t, name);
    return prore::Status::OK();
  }
  if (store.tag(name) == Tag::kVar) {
    return ThrowInstantiation(m, "functor/3");
  }
  if (store.tag(name) != Tag::kAtom) {
    return ThrowTypeError(m, "atom", name, "functor/3");
  }
  if (n < 0) {
    return ThrowDomainError(m, "not_less_than_zero", arity, "functor/3");
  }
  if (n > 1024) {
    return ThrowRepresentationError(m, "max_arity", "functor/3");
  }
  std::vector<TermRef> args(static_cast<size_t>(n));
  for (auto& a : args) a = store.MakeVar();
  *success = m->Unify(t, store.MakeStruct(store.symbol(name), args));
  return prore::Status::OK();
}

prore::Status BiArg(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef n = Arg(m, g, 0);
  TermRef t = Arg(m, g, 1);
  *success = false;
  if (store.tag(n) == Tag::kVar || store.tag(t) == Tag::kVar) {
    return ThrowInstantiation(m, "arg/3");
  }
  if (store.tag(n) != Tag::kInt) {
    return ThrowTypeError(m, "integer", n, "arg/3");
  }
  if (store.tag(t) != Tag::kStruct) {
    return ThrowTypeError(m, "compound", t, "arg/3");
  }
  int64_t i = store.int_value(n);
  if (i < 1 || i > store.arity(t)) return prore::Status::OK();  // fails
  *success = m->Unify(Arg(m, g, 2), store.arg(t, static_cast<uint32_t>(i - 1)));
  return prore::Status::OK();
}

prore::Status BiUniv(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef t = Arg(m, g, 0);
  TermRef list = Arg(m, g, 1);
  *success = false;
  if (store.tag(t) != Tag::kVar) {
    std::vector<TermRef> items;
    switch (store.tag(t)) {
      case Tag::kAtom:
      case Tag::kInt:
      case Tag::kFloat:
        items.push_back(t);
        break;
      case Tag::kStruct: {
        items.push_back(store.MakeAtom(store.symbol(t)));
        for (uint32_t i = 0; i < store.arity(t); ++i) {
          items.push_back(store.arg(t, i));
        }
        break;
      }
      case Tag::kVar:
        break;
    }
    *success = m->Unify(list, store.MakeList(items));
    return prore::Status::OK();
  }
  std::vector<TermRef> items;
  if (store.tag(list) == Tag::kVar) {
    return ThrowInstantiation(m, "=../2");
  }
  if (!ListToVector(store, list, &items) || items.empty()) {
    return ThrowTypeError(m, "list", list, "=../2");
  }
  TermRef head = store.Deref(items[0]);
  if (items.size() == 1) {
    *success = m->Unify(t, head);
    return prore::Status::OK();
  }
  if (store.tag(head) == Tag::kVar) {
    return ThrowInstantiation(m, "=../2");
  }
  if (store.tag(head) != Tag::kAtom) {
    return ThrowTypeError(m, "atom", head, "=../2");
  }
  std::vector<TermRef> args(items.begin() + 1, items.end());
  *success = m->Unify(t, store.MakeStruct(store.symbol(head), args));
  return prore::Status::OK();
}

prore::Status BiCopyTerm(Machine* m, TermRef g, bool* success) {
  TermRef copy = m->store().Rename(Arg(m, g, 0));
  *success = m->Unify(Arg(m, g, 1), copy);
  return prore::Status::OK();
}

// ---- I/O (buffered in the machine; the fixity analysis is what matters) ----

prore::Status BiWrite(Machine* m, TermRef g, bool* success) {
  reader::WriteOptions opts;
  opts.quoted = false;
  m->AppendOutput(reader::WriteTerm(m->store(), Arg(m, g, 0), opts));
  *success = true;
  return prore::Status::OK();
}

prore::Status BiWriteln(Machine* m, TermRef g, bool* success) {
  PRORE_RETURN_IF_ERROR(BiWrite(m, g, success));
  m->AppendOutput("\n");
  return prore::Status::OK();
}

prore::Status BiNl(Machine* m, TermRef g, bool* success) {
  (void)g;
  m->AppendOutput("\n");
  *success = true;
  return prore::Status::OK();
}

prore::Status BiTab(Machine* m, TermRef g, bool* success) {
  auto ev = EvalArithInt(m->store(), Arg(m, g, 0));
  if (!ev.ok()) return m->ThrowStatus(ev.status(), "tab/1");
  int64_t n = *ev;
  m->AppendOutput(std::string(static_cast<size_t>(std::max<int64_t>(0, n)), ' '));
  *success = true;
  return prore::Status::OK();
}

// ---- All-solutions predicates ----------------------------------------------

/// Strips `V^Goal` wrappers (bagof/setof existential quantification).
TermRef StripCarets(const TermStore& store, TermRef goal) {
  goal = store.Deref(goal);
  while (store.tag(goal) == Tag::kStruct && store.arity(goal) == 2 &&
         store.symbols().Name(store.symbol(goal)) == "^") {
    goal = store.Deref(store.arg(goal, 1));
  }
  return goal;
}

prore::Status BiFindall(Machine* m, TermRef g, bool* success) {
  TermRef tmpl = Arg(m, g, 0);
  TermRef goal = StripCarets(m->store(), Arg(m, g, 1));
  PRORE_ASSIGN_OR_RETURN(std::vector<TermRef> items, m->FindAll(goal, tmpl));
  *success = m->Unify(Arg(m, g, 2), m->store().MakeList(items));
  return prore::Status::OK();
}

prore::Status BiBagof(Machine* m, TermRef g, bool* success) {
  // Simplified bagof (the paper treats set-predicates "cursorily" and we
  // follow suit): findall semantics, but fails on an empty bag. Free
  // variables of the goal are not enumerated.
  TermRef tmpl = Arg(m, g, 0);
  TermRef goal = StripCarets(m->store(), Arg(m, g, 1));
  PRORE_ASSIGN_OR_RETURN(std::vector<TermRef> items, m->FindAll(goal, tmpl));
  if (items.empty()) {
    *success = false;
    return prore::Status::OK();
  }
  *success = m->Unify(Arg(m, g, 2), m->store().MakeList(items));
  return prore::Status::OK();
}

prore::Status BiSetof(Machine* m, TermRef g, bool* success) {
  TermRef tmpl = Arg(m, g, 0);
  TermRef goal = StripCarets(m->store(), Arg(m, g, 1));
  PRORE_ASSIGN_OR_RETURN(std::vector<TermRef> items, m->FindAll(goal, tmpl));
  if (items.empty()) {
    *success = false;
    return prore::Status::OK();
  }
  TermStore& store = m->store();
  std::sort(items.begin(), items.end(),
            [&](TermRef a, TermRef b) { return store.Compare(a, b) < 0; });
  items.erase(std::unique(items.begin(), items.end(),
                          [&](TermRef a, TermRef b) {
                            return store.Compare(a, b) == 0;
                          }),
              items.end());
  *success = m->Unify(Arg(m, g, 2), store.MakeList(items));
  return prore::Status::OK();
}

prore::Status SortList(Machine* m, TermRef g, bool dedup, bool* success) {
  TermStore& store = m->store();
  std::vector<TermRef> items;
  *success = false;
  TermRef input = Arg(m, g, 0);
  if (!ListToVector(store, input, &items)) {
    if (store.tag(input) == Tag::kVar) {
      return ThrowInstantiation(m, "sort/2");
    }
    return ThrowTypeError(m, "list", input, "sort/2");
  }
  std::sort(items.begin(), items.end(),
            [&](TermRef a, TermRef b) { return store.Compare(a, b) < 0; });
  if (dedup) {
    items.erase(std::unique(items.begin(), items.end(),
                            [&](TermRef a, TermRef b) {
                              return store.Compare(a, b) == 0;
                            }),
                items.end());
  }
  *success = m->Unify(Arg(m, g, 1), store.MakeList(items));
  return prore::Status::OK();
}

prore::Status BiSort(Machine* m, TermRef g, bool* success) {
  return SortList(m, g, /*dedup=*/true, success);
}

prore::Status BiMsort(Machine* m, TermRef g, bool* success) {
  return SortList(m, g, /*dedup=*/false, success);
}

// ---- Atom/string built-ins ---------------------------------------------------

prore::Status AtomName(Machine* m, TermRef t, std::string* out,
                       const char* context) {
  TermStore& store = m->store();
  t = store.Deref(t);
  switch (store.tag(t)) {
    case Tag::kAtom:
      *out = store.symbols().Name(store.symbol(t));
      return prore::Status::OK();
    case Tag::kInt:
      *out = std::to_string(store.int_value(t));
      return prore::Status::OK();
    case Tag::kFloat: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", store.float_value(t));
      *out = buf;
      return prore::Status::OK();
    }
    case Tag::kVar:
      return ThrowInstantiation(m, context);
    default:
      return ThrowTypeError(m, "atomic", t, context);
  }
}

prore::Status BiAtomLength(Machine* m, TermRef g, bool* success) {
  TermRef a = Arg(m, g, 0);
  std::string name;
  PRORE_RETURN_IF_ERROR(AtomName(m, a, &name, "atom_length/2"));
  *success = m->Unify(Arg(m, g, 1),
                      m->store().MakeInt(static_cast<int64_t>(name.size())));
  return prore::Status::OK();
}

prore::Status BiAtomCodes(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef a = Arg(m, g, 0);
  *success = false;
  if (store.tag(a) != Tag::kVar) {
    std::string name;
    PRORE_RETURN_IF_ERROR(AtomName(m, a, &name, "atom_codes/2"));
    std::vector<TermRef> codes;
    for (unsigned char c : name) codes.push_back(store.MakeInt(c));
    *success = m->Unify(Arg(m, g, 1), store.MakeList(codes));
    return prore::Status::OK();
  }
  std::vector<TermRef> items;
  TermRef codes_arg = Arg(m, g, 1);
  if (!ListToVector(store, codes_arg, &items)) {
    if (store.tag(codes_arg) == Tag::kVar) {
      return ThrowInstantiation(m, "atom_codes/2");
    }
    return ThrowTypeError(m, "list", codes_arg, "atom_codes/2");
  }
  std::string name;
  for (TermRef item : items) {
    item = store.Deref(item);
    if (store.tag(item) != Tag::kInt) {
      return ThrowTypeError(m, "integer", item, "atom_codes/2");
    }
    name.push_back(static_cast<char>(store.int_value(item)));
  }
  *success = m->Unify(a, store.MakeAtom(name));
  return prore::Status::OK();
}

prore::Status BiAtomChars(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef a = Arg(m, g, 0);
  *success = false;
  if (store.tag(a) != Tag::kVar) {
    std::string name;
    PRORE_RETURN_IF_ERROR(AtomName(m, a, &name, "atom_chars/2"));
    std::vector<TermRef> chars;
    for (char c : name) chars.push_back(store.MakeAtom(std::string(1, c)));
    *success = m->Unify(Arg(m, g, 1), store.MakeList(chars));
    return prore::Status::OK();
  }
  std::vector<TermRef> items;
  TermRef chars_arg = Arg(m, g, 1);
  if (!ListToVector(store, chars_arg, &items)) {
    if (store.tag(chars_arg) == Tag::kVar) {
      return ThrowInstantiation(m, "atom_chars/2");
    }
    return ThrowTypeError(m, "list", chars_arg, "atom_chars/2");
  }
  std::string name;
  for (TermRef item : items) {
    item = store.Deref(item);
    if (store.tag(item) != Tag::kAtom) {
      return ThrowTypeError(m, "character", item, "atom_chars/2");
    }
    name += store.symbols().Name(store.symbol(item));
  }
  *success = m->Unify(a, store.MakeAtom(name));
  return prore::Status::OK();
}

prore::Status BiCharCode(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef ch = Arg(m, g, 0);
  TermRef code = Arg(m, g, 1);
  *success = false;
  if (store.tag(ch) == Tag::kAtom) {
    const std::string& name = store.symbols().Name(store.symbol(ch));
    if (name.size() != 1) {
      return ThrowTypeError(m, "character", ch, "char_code/2");
    }
    *success = m->Unify(code, store.MakeInt(
                                   static_cast<unsigned char>(name[0])));
    return prore::Status::OK();
  }
  if (store.tag(code) == Tag::kInt) {
    char c = static_cast<char>(store.int_value(code));
    *success = m->Unify(ch, store.MakeAtom(std::string(1, c)));
    return prore::Status::OK();
  }
  return ThrowInstantiation(m, "char_code/2");
}

prore::Status BiNumberCodes(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef n = Arg(m, g, 0);
  *success = false;
  if (store.tag(n) == Tag::kInt || store.tag(n) == Tag::kFloat) {
    std::string text;
    PRORE_RETURN_IF_ERROR(AtomName(m, n, &text, "number_codes/2"));
    std::vector<TermRef> codes;
    for (unsigned char c : text) codes.push_back(store.MakeInt(c));
    *success = m->Unify(Arg(m, g, 1), store.MakeList(codes));
    return prore::Status::OK();
  }
  std::vector<TermRef> items;
  TermRef codes_arg = Arg(m, g, 1);
  if (!ListToVector(store, codes_arg, &items)) {
    if (store.tag(codes_arg) == Tag::kVar) {
      return ThrowInstantiation(m, "number_codes/2");
    }
    return ThrowTypeError(m, "list", codes_arg, "number_codes/2");
  }
  std::string text;
  for (TermRef item : items) {
    item = store.Deref(item);
    if (store.tag(item) != Tag::kInt) {
      return ThrowTypeError(m, "integer", item, "number_codes/2");
    }
    text.push_back(static_cast<char>(store.int_value(item)));
  }
  // Parse without exceptions (strto* with full-consumption check).
  const char* begin = text.c_str();
  char* end = nullptr;
  if (text.find('.') != std::string::npos ||
      text.find('e') != std::string::npos) {
    double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0') {
      return ThrowTypeError(m, "number", n, "number_codes/2");
    }
    *success = m->Unify(n, store.MakeFloat(v));
  } else {
    long long v = std::strtoll(begin, &end, 10);
    if (end == begin || *end != '\0') {
      return ThrowTypeError(m, "number", n, "number_codes/2");
    }
    *success = m->Unify(n, store.MakeInt(v));
  }
  return prore::Status::OK();
}

prore::Status BiAtomConcat(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef a = Arg(m, g, 0);
  TermRef b = Arg(m, g, 1);
  *success = false;
  if (store.tag(a) == Tag::kVar || store.tag(b) == Tag::kVar) {
    // The enumerating (?,?,+) mode needs choicepoints; this engine keeps
    // atom_concat deterministic (mode (+,+,?)), like early DEC-10 libs.
    return ThrowInstantiation(m, "atom_concat/3");
  }
  std::string na, nb;
  PRORE_RETURN_IF_ERROR(AtomName(m, a, &na, "atom_concat/3"));
  PRORE_RETURN_IF_ERROR(AtomName(m, b, &nb, "atom_concat/3"));
  *success = m->Unify(Arg(m, g, 2), store.MakeAtom(na + nb));
  return prore::Status::OK();
}

prore::Status BiSucc(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef a = Arg(m, g, 0);
  TermRef b = Arg(m, g, 1);
  *success = false;
  if (store.tag(a) == Tag::kInt) {
    if (store.int_value(a) < 0) {
      return ThrowTypeError(m, "not_less_than_zero", a, "succ/2");
    }
    *success = m->Unify(b, store.MakeInt(store.int_value(a) + 1));
    return prore::Status::OK();
  }
  if (store.tag(b) == Tag::kInt) {
    if (store.int_value(b) <= 0) return prore::Status::OK();  // fails
    *success = m->Unify(a, store.MakeInt(store.int_value(b) - 1));
    return prore::Status::OK();
  }
  return ThrowInstantiation(m, "succ/2");
}

// ---- Dynamic clauses and input (substrate features; excluded from the
// ----- reorderer's scope, treated as side-effects by the analyses) -------

prore::Status BiAssert(Machine* m, TermRef g, bool* success, bool front) {
  TermStore& store = m->store();
  TermRef clause = store.Deref(store.arg(g, 0));
  if (!store.IsCallable(clause)) {
    if (store.tag(clause) == Tag::kVar) {
      return ThrowInstantiation(m, "assert/1");
    }
    return ThrowTypeError(m, "callable", clause, "assert/1");
  }
  if (m->mutable_db() == nullptr) {
    TermRef head = clause;
    if (store.tag(clause) == Tag::kStruct && store.arity(clause) == 2 &&
        store.symbol(clause) == term::SymbolTable::kNeck) {
      head = store.Deref(store.arg(clause, 0));
    }
    return ThrowStaticProcedure(m, store.pred_id(head), "assert/1");
  }
  // Store an independent copy: later binding changes must not affect the
  // database (ISO semantics).
  TermRef copy = store.Rename(clause);
  PRORE_RETURN_IF_ERROR(m->mutable_db()->Assert(&store, copy, front));
  *success = true;
  return prore::Status::OK();
}

prore::Status BiAssertZ(Machine* m, TermRef g, bool* success) {
  return BiAssert(m, g, success, /*front=*/false);
}

prore::Status BiAssertA(Machine* m, TermRef g, bool* success) {
  return BiAssert(m, g, success, /*front=*/true);
}

prore::Status BiRetract(Machine* m, TermRef g, bool* success) {
  TermStore& store = m->store();
  TermRef pattern = store.Deref(store.arg(g, 0));
  // Normalize to Head/Body.
  TermRef pat_head = pattern;
  TermRef pat_body = store.MakeAtom(term::SymbolTable::kTrue);
  if (store.tag(pattern) == Tag::kStruct && store.arity(pattern) == 2 &&
      store.symbol(pattern) == term::SymbolTable::kNeck) {
    pat_head = store.Deref(store.arg(pattern, 0));
    pat_body = store.Deref(store.arg(pattern, 1));
  }
  if (!store.IsCallable(pat_head)) {
    if (store.tag(pat_head) == Tag::kVar) {
      return ThrowInstantiation(m, "retract/1");
    }
    return ThrowTypeError(m, "callable", pat_head, "retract/1");
  }
  term::PredId id = store.pred_id(pat_head);
  if (m->mutable_db() == nullptr) {
    return ThrowStaticProcedure(m, id, "retract/1");
  }
  const PredEntry* entry = m->db().Lookup(id);
  *success = false;
  if (entry == nullptr) return prore::Status::OK();
  size_t n = entry->clauses.size();  // snapshot: later asserts invisible
  for (size_t i = 0; i < n; ++i) {
    const CompiledClause& cc = entry->clauses[i];
    if (cc.dead()) continue;
    size_t mark = m->TrailMark();
    std::unordered_map<uint32_t, TermRef> var_map;
    TermRef head_copy = store.Rename(cc.head, &var_map);
    TermRef body_copy = store.Rename(cc.body, &var_map);
    if (m->Unify(pat_head, head_copy) && m->Unify(pat_body, body_copy)) {
      m->mutable_db()->MarkDead(id, i);
      *success = true;  // bindings from the match remain (ISO)
      return prore::Status::OK();
    }
    m->TrailUndo(mark);
  }
  return prore::Status::OK();
}

prore::Status BiRead(Machine* m, TermRef g, bool* success) {
  *success = m->Unify(Arg(m, g, 0), m->NextInputTerm());
  return prore::Status::OK();
}

// ---- Exceptions -------------------------------------------------------------
// throw/1 and catch/3 are dispatched natively by the machine (they are
// control constructs, ISO 7.8.9/7.8.10: uncounted, with the catch frame
// living on the choicepoint stack). The registry entries exist so the
// static analyses — PL002 undefined-predicate lint, callgraph, cost
// model — recognize them as defined; BiThrow also serves nested machines
// that dispatch via the builtin table.

prore::Status BiThrow(Machine* m, TermRef g, bool* success) {
  *success = false;
  return m->ThrowTerm(m->store().arg(g, 0));
}

prore::Status BiCatch(Machine* m, TermRef g, bool* success) {
  (void)m;
  (void)g;
  (void)success;
  return prore::Status::Internal(
      "catch/3 must be dispatched by the machine, not the builtin table");
}

struct NameArity {
  std::string name;
  uint32_t arity;
  bool operator==(const NameArity&) const = default;
};

struct NameArityHash {
  size_t operator()(const NameArity& k) const {
    return std::hash<std::string>()(k.name) ^ (k.arity * 0x9e3779b9u);
  }
};

const std::unordered_map<NameArity, BuiltinFn, NameArityHash>& Registry() {
  static const auto& table = *new std::unordered_map<NameArity, BuiltinFn,
                                                     NameArityHash>{
      {{"=", 2}, BiUnify},
      {{"\\=", 2}, BiNotUnify},
      {{"==", 2}, BiStructEq},
      {{"\\==", 2}, BiStructNeq},
      {{"@<", 2}, BiTermOrder<-1, -1>},
      {{"@>", 2}, BiTermOrder<1, 1>},
      {{"@=<", 2}, BiTermOrder<-1, 0>},
      {{"@>=", 2}, BiTermOrder<0, 1>},
      {{"compare", 3}, BiCompare},
      {{"var", 1}, BiVar},
      // Dispatcher tag test: same as var/1 but uncounted (the paper: the
      // dispatch "needs merely to test two tag bits").
      {{"$var_test", 1}, BiVar},
      {{"nonvar", 1}, BiNonvar},
      {{"atom", 1}, BiAtom},
      {{"integer", 1}, BiInteger},
      {{"float", 1}, BiFloat},
      {{"number", 1}, BiNumber},
      {{"atomic", 1}, BiAtomic},
      {{"compound", 1}, BiCompound},
      {{"callable", 1}, BiCallable},
      {{"ground", 1}, BiGround},
      {{"is_list", 1}, BiIsList},
      {{"is", 2}, BiIs},
      {{"<", 2}, BiLt},
      {{">", 2}, BiGt},
      {{"=<", 2}, BiLe},
      {{">=", 2}, BiGe},
      {{"=:=", 2}, BiArithEq},
      {{"=\\=", 2}, BiArithNeq},
      {{"functor", 3}, BiFunctor},
      {{"arg", 3}, BiArg},
      {{"=..", 2}, BiUniv},
      {{"copy_term", 2}, BiCopyTerm},
      {{"write", 1}, BiWrite},
      {{"print", 1}, BiWrite},
      {{"writeln", 1}, BiWriteln},
      {{"nl", 0}, BiNl},
      {{"tab", 1}, BiTab},
      {{"findall", 3}, BiFindall},
      {{"bagof", 3}, BiBagof},
      {{"setof", 3}, BiSetof},
      {{"sort", 2}, BiSort},
      {{"msort", 2}, BiMsort},
      {{"atom_length", 2}, BiAtomLength},
      {{"atom_codes", 2}, BiAtomCodes},
      {{"atom_chars", 2}, BiAtomChars},
      {{"char_code", 2}, BiCharCode},
      {{"number_codes", 2}, BiNumberCodes},
      {{"atom_concat", 3}, BiAtomConcat},
      {{"succ", 2}, BiSucc},
      {{"assert", 1}, BiAssertZ},
      {{"assertz", 1}, BiAssertZ},
      {{"asserta", 1}, BiAssertA},
      {{"retract", 1}, BiRetract},
      {{"read", 1}, BiRead},
      {{"throw", 1}, BiThrow},
      {{"catch", 3}, BiCatch},
  };
  return table;
}

}  // namespace

BuiltinFn LookupBuiltin(std::string_view name, uint32_t arity) {
  auto it = Registry().find(NameArity{std::string(name), arity});
  return it == Registry().end() ? nullptr : it->second;
}

}  // namespace prore::engine
