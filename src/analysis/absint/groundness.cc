#include "analysis/absint/groundness.h"

#include <utility>

#include "analysis/mode_inference.h"
#include "engine/builtins.h"

namespace prore::analysis::absint {

using term::PredId;
using term::TermRef;
using term::TermStore;

GroundnessDomain::GroundnessDomain(const TermStore* store,
                                   const reader::Program* program)
    : store_(store), program_(program) {
  AddLibraryModes(const_cast<TermStore*>(store), &library_modes_);
}

GroundnessValue GroundnessDomain::Bottom(const PredId& id,
                                         const Mode& /*pattern*/) const {
  // Optimistic: claims everything grounds and nothing succeeds; the
  // fixpoint weakens both upward.
  return {Mode(id.arity, ModeItem::kPlus), false};
}

GroundnessValue GroundnessDomain::Top(const PredId& id,
                                      const Mode& /*pattern*/) const {
  return {Mode(id.arity, ModeItem::kAny), true};
}

GroundnessValue GroundnessDomain::Join(const Value& a, const Value& b) const {
  if (!a.can_succeed) return b;
  if (!b.can_succeed) return a;
  Mode joined(a.success.size());
  for (size_t i = 0; i < a.success.size(); ++i) {
    joined[i] = a.success[i] == b.success[i] ? a.success[i] : ModeItem::kAny;
  }
  return {std::move(joined), true};
}

GroundnessValue GroundnessDomain::Widen(const Value& a, const Value& b) const {
  // Per-position jump to '?' wherever the chain is still moving. The
  // domain is finite (chain length <= arity + 1) so this only shortens
  // convergence, never changes the limit's soundness.
  if (!a.can_succeed) return b;
  if (!b.can_succeed) return a;
  Mode widened(a.success.size());
  for (size_t i = 0; i < a.success.size(); ++i) {
    widened[i] = a.success[i] == b.success[i] ? a.success[i] : ModeItem::kAny;
  }
  return {std::move(widened), true};
}

bool GroundnessDomain::Equal(const Value& a, const Value& b) const {
  return a == b;
}

prore::Result<const std::vector<std::unique_ptr<BodyNode>>*>
GroundnessDomain::BodiesOf(const PredId& id) {
  auto it = bodies_.find(id);
  if (it != bodies_.end()) return &it->second;
  std::vector<std::unique_ptr<BodyNode>> parsed;
  for (const reader::Clause& clause : program_->ClausesOf(id)) {
    PRORE_ASSIGN_OR_RETURN(auto body, ParseBody(*store_, clause.body));
    parsed.push_back(std::move(body));
  }
  return &bodies_.emplace(id, std::move(parsed)).first->second;
}

prore::Result<GroundnessValue> GroundnessDomain::Transfer(
    const PredId& id, const Mode& pattern, const Lookup<Value>& lookup) {
  if (!program_->Has(id)) {
    // Builtin or library predicate: its summary is the static mode table
    // (these never change, so the solver analyzes them exactly once).
    const std::string& name = store_->symbols().Name(id.name);
    std::optional<Mode> out;
    if (engine::LookupBuiltin(name, id.arity) != nullptr) {
      out = BuiltinModes::Standard().OutputFor(name, id.arity, pattern);
    } else {
      out = library_modes_.OutputFor(id, pattern);
    }
    return GroundnessValue{
        ApplyOutput(pattern, out.value_or(Mode(id.arity, ModeItem::kAny))),
        true};
  }
  const auto& clauses = program_->ClausesOf(id);
  if (clauses.empty()) {
    // No static clauses — possibly a dynamic predicate filled by assert at
    // run time, so "always fails" would be unsound. Stay at Top.
    return Top(id, pattern);
  }
  PRORE_ASSIGN_OR_RETURN(const auto* bodies, BodiesOf(id));
  GroundnessValue combined = Bottom(id, pattern);
  for (size_t c = 0; c < clauses.size(); ++c) {
    AbstractEnv env = EnvFromHead(*store_, clauses[c].head, pattern);
    bool may_succeed = true;
    PRORE_RETURN_IF_ERROR(
        WalkBody(*(*bodies)[c], &env, &may_succeed, lookup));
    if (!may_succeed) continue;
    TermRef head = store_->Deref(clauses[c].head);
    Mode clause_out(id.arity);
    for (uint32_t i = 0; i < id.arity; ++i) {
      clause_out[i] = env.ModeOf(*store_, store_->arg(head, i));
    }
    combined = Join(combined,
                    GroundnessValue{ApplyOutput(pattern, clause_out), true});
  }
  return combined;
}

prore::Status GroundnessDomain::WalkBody(const BodyNode& node,
                                         AbstractEnv* env, bool* may_succeed,
                                         const Lookup<Value>& lookup) {
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kCut:
      return prore::Status::OK();
    case BodyKind::kFail:
      *may_succeed = false;
      return prore::Status::OK();
    case BodyKind::kConj:
      for (const auto& child : node.children) {
        PRORE_RETURN_IF_ERROR(WalkBody(*child, env, may_succeed, lookup));
        if (!*may_succeed) return prore::Status::OK();
      }
      return prore::Status::OK();
    case BodyKind::kDisj: {
      AbstractEnv left = *env;
      AbstractEnv right = *env;
      bool left_ok = true;
      bool right_ok = true;
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[0], &left, &left_ok, lookup));
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[1], &right, &right_ok, lookup));
      // Only branches that can succeed contribute to the merged state.
      if (left_ok && right_ok) {
        *env = AbstractEnv::Join(left, right);
      } else if (left_ok) {
        *env = left;
      } else if (right_ok) {
        *env = right;
      } else {
        *may_succeed = false;
      }
      return prore::Status::OK();
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env;
      AbstractEnv else_env = *env;
      bool then_ok = true;
      bool else_ok = true;
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[0], &then_env, &then_ok, lookup));
      if (then_ok) {
        PRORE_RETURN_IF_ERROR(
            WalkBody(*node.children[1], &then_env, &then_ok, lookup));
      }
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[2], &else_env, &else_ok, lookup));
      if (then_ok && else_ok) {
        *env = AbstractEnv::Join(then_env, else_env);
      } else if (then_ok) {
        *env = then_env;
      } else if (else_ok) {
        *env = else_env;
      } else {
        *may_succeed = false;
      }
      return prore::Status::OK();
    }
    case BodyKind::kNeg: {
      // \+ G binds nothing and succeeds exactly when G fails — which the
      // analysis cannot refute, so it stays a possible success.
      AbstractEnv scratch = *env;
      bool scratch_ok = true;
      return WalkBody(*node.children[0], &scratch, &scratch_ok, lookup);
    }
    case BodyKind::kSetPred: {
      AbstractEnv scratch = *env;
      bool scratch_ok = true;
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[0], &scratch, &scratch_ok, lookup));
      TermRef goal = store_->Deref(node.goal);
      std::vector<TermRef> vars;
      store_->CollectVars(store_->arg(goal, 2), &vars);
      for (TermRef v : vars) {
        if (env->Get(store_->var_id(v)) == VarState::kFree) {
          env->Set(store_->var_id(v), VarState::kUnknown);
        }
      }
      return prore::Status::OK();
    }
    case BodyKind::kCatch: {
      AbstractEnv goal_env = *env;
      bool goal_ok = true;
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[0], &goal_env, &goal_ok, lookup));
      AbstractEnv rec_env = *env;
      bool rec_ok = true;
      TermRef goal = store_->Deref(node.goal);
      std::vector<TermRef> catcher_vars;
      store_->CollectVars(store_->arg(goal, 1), &catcher_vars);
      for (TermRef v : catcher_vars) {
        if (rec_env.Get(store_->var_id(v)) == VarState::kFree) {
          rec_env.Set(store_->var_id(v), VarState::kUnknown);
        }
      }
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[1], &rec_env, &rec_ok, lookup));
      // Even a goal that cannot *succeed* may still throw, so the recovery
      // branch stays reachable regardless of goal_ok.
      if (goal_ok && rec_ok) {
        *env = AbstractEnv::Join(goal_env, rec_env);
      } else if (goal_ok) {
        *env = goal_env;
      } else if (rec_ok) {
        *env = rec_env;
      } else {
        *may_succeed = false;
      }
      return prore::Status::OK();
    }
    case BodyKind::kCall:
      break;
  }

  TermRef goal = store_->Deref(node.goal);
  PredId callee = store_->pred_id(goal);
  const std::string& name = store_->symbols().Name(callee.name);
  if (name == "=" && callee.arity == 2) {
    env->ApplyUnification(*store_, store_->arg(goal, 0),
                          store_->arg(goal, 1));
    return prore::Status::OK();
  }
  Mode call_mode = env->CallModeOf(*store_, goal);
  if (program_->Has(callee)) {
    const GroundnessValue& summary = lookup(callee, call_mode);
    if (!summary.can_succeed) {
      *may_succeed = false;
      return prore::Status::OK();
    }
    env->ApplyCallOutput(*store_, goal, summary.success);
    return prore::Status::OK();
  }
  std::optional<Mode> out;
  if (engine::LookupBuiltin(name, callee.arity) != nullptr) {
    out = BuiltinModes::Standard().OutputFor(name, callee.arity, call_mode);
  } else {
    out = library_modes_.OutputFor(callee, call_mode);
  }
  env->ApplyCallOutput(*store_, goal,
                       out.value_or(Mode(callee.arity, ModeItem::kAny)));
  return prore::Status::OK();
}

const GroundnessValue* GroundnessSummaries::Find(const TermStore& store,
                                                 const PredId& id,
                                                 const Mode& pattern) const {
  auto it = by_key.find(KeyName(store, id, pattern));
  return it == by_key.end() ? nullptr : &it->second;
}

namespace {

/// True if every call abstracted by `call_mode` is also abstracted by
/// `pattern` (γ-inclusion): '?' covers anything, '+'/'-' only themselves.
bool PatternCovers(const Mode& pattern, const Mode& call_mode) {
  if (pattern.size() != call_mode.size()) return false;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != ModeItem::kAny && pattern[i] != call_mode[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<Mode> GroundnessSummaries::SuccessModeFor(
    const TermStore& store, const PredId& id, const Mode& call_mode) const {
  (void)store;
  // Every covering summary is individually a valid guarantee, so combine
  // them by taking the strongest claim per position ('+'/'-' beat '?';
  // contradictions cannot arise from sound summaries, and if one ever did
  // the position just keeps the first claim).
  std::optional<Mode> best;
  for (const auto& [key, ck] : keys) {
    if (!(ck.pred == id)) continue;
    if (!PatternCovers(ck.pattern, call_mode)) continue;
    const GroundnessValue& v = by_key.at(key);
    if (!v.can_succeed) continue;
    Mode applied = ApplyOutput(call_mode, v.success);
    if (!best.has_value()) {
      best = std::move(applied);
      continue;
    }
    for (size_t i = 0; i < best->size(); ++i) {
      if ((*best)[i] == ModeItem::kAny) (*best)[i] = applied[i];
    }
  }
  return best;
}

}  // namespace prore::analysis::absint
