#include "core/reorderer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <unordered_set>

#include "analysis/absint/absint.h"
#include "analysis/body.h"
#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "common/str_util.h"
#include "core/clause_order.h"
#include "core/restrictions.h"
#include "cost/cost_model.h"
#include "engine/builtins.h"
#include "lint/validate.h"
#include "reader/writer.h"

namespace prore::core {

using analysis::AbstractEnv;
using analysis::BodyKind;
using analysis::BodyNode;
using analysis::Mode;
using analysis::ModeItem;
using term::PredId;
using term::SymbolTable;
using term::Tag;
using term::TermRef;
using term::TermStore;

std::string Reorderer::VersionName(const TermStore& store, const PredId& id,
                                   const Mode& mode) {
  return store.symbols().Name(id.name) + "_" + analysis::ModeSuffix(mode);
}

prore::Result<CallPatterns> AnalyzeCallPatterns(
    const TermStore& store, const reader::Program& program,
    const analysis::CallGraph& graph, const analysis::Declarations& decls,
    const ReorderOptions& options) {
  CallPatterns out;
  analysis::InferenceOptions inference = options.inference;
  inference.exec = options.exec;
  PRORE_ASSIGN_OR_RETURN(
      out.modes,
      analysis::InferModes(store, program, graph, decls, inference));
  if (!options.absint) return out;
  analysis::absint::AbsintOptions ao;
  ao.watchdog = options.absint_watchdog;
  ao.exec = options.exec;
  PRORE_ASSIGN_OR_RETURN(
      auto absint, analysis::absint::RunAbsint(store, program, graph, decls,
                                               &out.modes, ao));
  out.absint =
      std::make_unique<analysis::absint::AbsintResult>(std::move(absint));
  // Fold the groundness success patterns into the guarantee table before
  // the oracle captures it: '?' slots the local fixpoint left behind can
  // become '+'/'-' here, which admits orderings legality would otherwise
  // reject. legal_table is left alone — absint proves outputs, not that
  // an input mode is legal for a recursive predicate.
  analysis::absint::TightenModes(store, out.absint->groundness,
                                 &out.modes.table);
  return out;
}

namespace {

/// Weakens '?' to '-' : safe (legality is upward-closed in instantiation)
/// and gives the specializer a concrete {+,-} version to call.
Mode Weaken(const Mode& mode) {
  Mode out = mode;
  for (ModeItem& m : out) {
    if (m == ModeItem::kAny) m = ModeItem::kMinus;
  }
  return out;
}

class Pipeline {
 public:
  Pipeline(TermStore* store, const reader::Program& original,
           const ReorderOptions& options, const GroupContext* group)
      : store_(store), original_(original), options_(options), group_(group) {}

  prore::Result<ReorderResult> Run();

 private:
  struct Version {
    PredId pred;
    Mode mode;
    std::string name;
    std::vector<reader::Clause> clauses;
    bool clauses_changed = false;
    bool goals_changed = false;
    double predicted_original_cost = 0.0;
    double predicted_new_cost = 0.0;
    bool emitted_under_original_name = false;
  };

  prore::Status Setup();
  prore::Status ProcessQueue();
  std::string EnsureVersion(const PredId& pred, const Mode& mode);
  prore::Status BuildVersion(const PredId& pred, const Mode& mode,
                             Version* out);

  bool AllowReorder(const PredId& pred) const;
  /// Owned by an earlier run (a callee summary): analyzed, never built.
  bool External(const PredId& pred) const {
    return external_.count(pred) > 0;
  }
  CalleeSummary Publish() const;
  const std::vector<const CalleeSummary*>& Callees() const {
    static const std::vector<const CalleeSummary*> kNone;
    return group_ != nullptr ? group_->callees : kNone;
  }

  // Phase A: reorder a body tree (no renaming).
  prore::Result<std::unique_ptr<BodyNode>> ReorderNode(const BodyNode& node,
                                                       AbstractEnv* env,
                                                       bool allow,
                                                       bool* changed);
  prore::Result<std::unique_ptr<BodyNode>> ReorderSeq(const BodyNode& node,
                                                      AbstractEnv* env,
                                                      bool allow,
                                                      bool* changed);
  // Phase B: emit a term from a (reordered) tree, renaming user goals to
  // mode-specialized versions.
  prore::Result<TermRef> EmitNode(const BodyNode& node, AbstractEnv* env,
                                  bool rename);
  prore::Result<TermRef> EmitSeq(const BodyNode& node, AbstractEnv* env,
                                 bool rename);
  TermRef RenameGoal(TermRef goal, const AbstractEnv& env);

  // Dispatchers and output assembly.
  void ComputeAliases();
  std::string ResolveAlias(std::string name) const;
  TermRef RewriteAliases(TermRef t);
  std::string TargetFor(const PredId& pred, const Mode& combo) const;
  prore::Status EmitDispatcher(const PredId& pred, reader::Program* out);
  prore::Result<reader::Program> Assemble();

  std::string Key(const PredId& id, const Mode& mode) const {
    return store_->symbols().Name(id.name) + "/" +
           std::to_string(id.arity) + ":" + analysis::ModeSuffix(mode);
  }

  TermStore* store_;
  const reader::Program& original_;
  ReorderOptions options_;
  const GroupContext* group_;  ///< null: `original_` is the whole program
  /// External predicate -> its published versions.
  std::unordered_map<PredId, std::vector<const lint::VersionInfo*>,
                     term::PredIdHash>
      external_;

  analysis::Declarations decls_;
  analysis::CallGraph graph_;
  analysis::FixityResult fixity_;
  analysis::PredSet frozen_;
  CallPatterns inferred_;  ///< when the run analyzes its own program
  const CallPatterns* patterns_ = &inferred_;
  std::unique_ptr<analysis::LegalityOracle> oracle_;
  std::unique_ptr<cost::CostModel> costs_;
  std::unique_ptr<GoalOrderSearch> search_;

  std::map<std::string, Version> versions_;     // key -> version
  std::vector<std::string> pending_;            // keys awaiting processing
  std::unordered_map<PredId, std::vector<std::string>, term::PredIdHash>
      versions_of_;                             // pred -> keys, in order
  std::unordered_map<PredId, size_t, term::PredIdHash> scc_rank_;
  std::unordered_map<std::string, std::string> alias_;  // name -> canonical
  std::vector<PredModeReport> reports_;
  std::vector<lint::Diagnostic> diagnostics_;
};

prore::Status Pipeline::Setup() {
  PRORE_ASSIGN_OR_RETURN(decls_,
                         analysis::ParseDeclarations(*store_, original_));
  PRORE_ASSIGN_OR_RETURN(graph_,
                         analysis::CallGraph::Build(*store_, original_));
  PRORE_ASSIGN_OR_RETURN(fixity_,
                         analysis::AnalyzeFixity(*store_, original_, graph_));
  PRORE_ASSIGN_OR_RETURN(frozen_,
                         FrozenDescendants(*store_, original_, graph_));
  if (group_ != nullptr) {
    // Facts that flow caller -> callee come from the whole program: the
    // subprogram cannot see how outside callers call its predicates.
    frozen_.insert(group_->frozen->begin(), group_->frozen->end());
    patterns_ = group_->patterns;
  } else {
    PRORE_ASSIGN_OR_RETURN(inferred_,
                           AnalyzeCallPatterns(*store_, original_, graph_,
                                               decls_, options_));
  }
  oracle_ = std::make_unique<analysis::LegalityOracle>(
      store_, &original_, &graph_, &patterns_->modes);
  PRORE_RETURN_IF_ERROR(analysis::RefineSemifixity(
      *store_, original_, graph_, oracle_.get(), &fixity_));
  costs_ = std::make_unique<cost::CostModel>(store_, &original_, &graph_,
                                             &decls_, oracle_.get());
  if (patterns_->absint != nullptr) {
    costs_->SetDeterminism(&patterns_->absint->determinism);
  }
  if (options_.profile != nullptr) costs_->SetEmpirical(options_.profile);
  for (const CalleeSummary* callee : Callees()) {
    costs_->Preload(callee->stats);
    for (const lint::VersionInfo& v : callee->versions) {
      external_[v.pred].push_back(&v);
    }
  }
  costs_->ArmWatchdog(options_.cost_watchdog, options_.exec);
  search_ = std::make_unique<GoalOrderSearch>(store_, costs_.get(), &fixity_,
                                              options_.goal_search);
  size_t rank = 0;
  for (const auto& scc : graph_.SccsBottomUp()) {
    for (const PredId& p : scc) scc_rank_[p] = rank;
    ++rank;
  }
  // Declared-recursive predicates join the analysis's recursive set via
  // the declarations; the call graph already found the structural ones.
  return prore::Status::OK();
}

bool Pipeline::AllowReorder(const PredId& pred) const {
  if (options_.identity_preds.count(pred) > 0) return false;
  if (frozen_.count(pred) > 0) return false;
  if (fixity_.IsFixed(pred)) return false;
  if (graph_.IsRecursive(pred) &&
      options_.reorder_recursive_only_if_declared &&
      !decls_.legal_modes.Has(pred)) {
    return false;
  }
  return true;
}

std::string Pipeline::EnsureVersion(const PredId& pred, const Mode& mode) {
  std::string name = Reorderer::VersionName(*store_, pred, mode);
  // Defensive: a user predicate may already carry a version-style name
  // (someone ran the reorderer's output through it again, or just likes
  // the suffix). Probe until free.
  auto taken = [&](const std::string& n) {
    PredId id{store_->symbols().Intern(n), pred.arity};
    if (id == pred) return false;
    return original_.Has(id) ||
           (group_ != nullptr && group_->program_preds->count(id) > 0);
  };
  while (taken(name)) name += "_v";
  std::string key = Key(pred, mode);
  if (versions_.count(key) == 0) {
    auto& list = versions_of_[pred];
    if (list.size() >= options_.max_versions_per_pred) {
      return store_->symbols().Name(pred.name);  // fall back to dispatcher
    }
    Version v;
    v.pred = pred;
    v.mode = mode;
    v.name = name;  // possibly collision-adjusted
    versions_.emplace(key, std::move(v));
    list.push_back(key);
    pending_.push_back(key);
  }
  return name;
}

prore::Status Pipeline::ProcessQueue() {
  while (!pending_.empty()) {
    // Bottom-up: lowest SCC rank first, so callers price reordered callees.
    size_t best = 0;
    for (size_t i = 1; i < pending_.size(); ++i) {
      if (scc_rank_[versions_[pending_[i]].pred] <
          scc_rank_[versions_[pending_[best]].pred]) {
        best = i;
      }
    }
    std::string key = pending_[best];
    pending_.erase(pending_.begin() + best);
    Version& v = versions_[key];
    // Fault boundary: a version build that throws or fails is attributed
    // to its predicate via on_pred_error before the error propagates, so
    // the guarded pipeline (core/pipeline.h) knows whom to quarantine.
    prore::Status st;
    try {
      st = BuildVersion(v.pred, v.mode, &v);
    } catch (const std::exception& e) {
      st = prore::Status::Internal(
          prore::StrFormat("uncaught exception while building %s: %s",
                           reader::PredName(*store_, v.pred).c_str(),
                           e.what()));
    }
    if (!st.ok()) {
      if (options_.on_pred_error) options_.on_pred_error(v.pred, st);
      return st;
    }
  }
  return prore::Status::OK();
}

prore::Result<std::unique_ptr<BodyNode>> Pipeline::ReorderNode(
    const BodyNode& node, AbstractEnv* env, bool allow, bool* changed) {
  auto clone = std::make_unique<BodyNode>();
  clone->kind = node.kind;
  clone->goal = node.goal;
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kFail:
    case BodyKind::kCut:
    case BodyKind::kCall:
      costs_->AdvanceEnv(node, env);
      return clone;
    case BodyKind::kConj:
      return ReorderSeq(node, env, allow, changed);
    case BodyKind::kDisj: {
      AbstractEnv left = *env, right = *env;
      PRORE_ASSIGN_OR_RETURN(auto l,
                             ReorderSeq(*node.children[0], &left, allow,
                                        changed));
      PRORE_ASSIGN_OR_RETURN(auto r,
                             ReorderSeq(*node.children[1], &right, allow,
                                        changed));
      clone->children.push_back(std::move(l));
      clone->children.push_back(std::move(r));
      *env = AbstractEnv::Join(left, right);
      return clone;
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env, else_env = *env;
      // The premise is immobile (§IV-D.3) — no reordering inside it.
      PRORE_ASSIGN_OR_RETURN(auto c,
                             ReorderSeq(*node.children[0], &then_env,
                                        /*allow=*/false, changed));
      PRORE_ASSIGN_OR_RETURN(auto t,
                             ReorderSeq(*node.children[1], &then_env, allow,
                                        changed));
      PRORE_ASSIGN_OR_RETURN(auto e,
                             ReorderSeq(*node.children[2], &else_env, allow,
                                        changed));
      clone->children.push_back(std::move(c));
      clone->children.push_back(std::move(t));
      clone->children.push_back(std::move(e));
      *env = AbstractEnv::Join(then_env, else_env);
      return clone;
    }
    case BodyKind::kNeg: {
      AbstractEnv scratch = *env;
      PRORE_ASSIGN_OR_RETURN(auto inner,
                             ReorderSeq(*node.children[0], &scratch, allow,
                                        changed));
      clone->children.push_back(std::move(inner));
      return clone;
    }
    case BodyKind::kSetPred: {
      AbstractEnv scratch = *env;
      PRORE_ASSIGN_OR_RETURN(auto inner,
                             ReorderSeq(*node.children[0], &scratch, allow,
                                        changed));
      clone->children.push_back(std::move(inner));
      costs_->AdvanceEnv(node, env);
      return clone;
    }
    case BodyKind::kCatch: {
      // Opaque control construct: never permute inside catch/3 — moving a
      // goal across the protection boundary changes which exceptions the
      // catcher sees (clone with allow=false, like the ITE premise).
      AbstractEnv goal_env = *env, rec_env = *env;
      PRORE_ASSIGN_OR_RETURN(auto goal_n,
                             ReorderSeq(*node.children[0], &goal_env,
                                        /*allow=*/false, changed));
      PRORE_ASSIGN_OR_RETURN(auto rec_n,
                             ReorderSeq(*node.children[1], &rec_env,
                                        /*allow=*/false, changed));
      clone->children.push_back(std::move(goal_n));
      clone->children.push_back(std::move(rec_n));
      costs_->AdvanceEnv(node, env);
      return clone;
    }
  }
  return clone;
}

prore::Result<std::unique_ptr<BodyNode>> Pipeline::ReorderSeq(
    const BodyNode& node, AbstractEnv* env, bool allow, bool* changed) {
  PRORE_ASSIGN_OR_RETURN(ClausePlan plan,
                         PlanClause(*store_, node, fixity_, graph_));
  std::vector<std::unique_ptr<BodyNode>> out_children;
  for (const Segment& segment : plan.segments) {
    std::vector<const BodyNode*> order = segment.elements;
    if (allow && !segment.frozen && options_.reorder_goals &&
        order.size() > 1) {
      PRORE_ASSIGN_OR_RETURN(OrderResult r,
                             search_->FindBestOrder(order, *env));
      if (r.changed) *changed = true;
      order = r.order;
    }
    for (const BodyNode* el : order) {
      PRORE_ASSIGN_OR_RETURN(auto n, ReorderNode(*el, env, allow, changed));
      out_children.push_back(std::move(n));
    }
    if (segment.barrier != nullptr) {
      PRORE_ASSIGN_OR_RETURN(auto b,
                             ReorderNode(*segment.barrier, env, allow,
                                         changed));
      out_children.push_back(std::move(b));
    }
  }
  if (out_children.size() == 1) return std::move(out_children[0]);
  auto conj = std::make_unique<BodyNode>();
  conj->kind = BodyKind::kConj;
  conj->goal = node.goal;
  conj->children = std::move(out_children);
  return conj;
}

TermRef Pipeline::RenameGoal(TermRef goal, const AbstractEnv& env) {
  goal = store_->Deref(goal);
  PredId id = store_->pred_id(goal);
  if (!options_.specialize_modes) return goal;
  if (!original_.Has(id)) return goal;  // built-in or library predicate
  if (id.arity == 0 || id.arity > options_.max_dispatch_arity) return goal;
  // Quarantined callees keep their original, unspecialized entry point.
  if (options_.identity_preds.count(id) > 0 ||
      options_.clause_order_only.count(id) > 0) {
    return goal;
  }
  Mode mode = Weaken(env.CallModeOf(*store_, goal));
  if (!oracle_->IsLegalCall(id, mode)) {
    // The weakened static mode is not provably safe; route through the
    // dispatcher, whose run-time var tests pick a safe version (§V-D).
    return goal;
  }
  std::string name = store_->symbols().Name(id.name);
  if (auto it = external_.find(id); it != external_.end()) {
    for (const lint::VersionInfo* v : it->second) {
      if (v->mode == mode) name = v->version_name;
    }
  } else {
    name = EnsureVersion(id, mode);
  }
  if (name == store_->symbols().Name(id.name)) return goal;
  term::Symbol sym = store_->symbols().Intern(name);
  if (store_->arity(goal) == 0) return store_->MakeAtom(sym);
  std::vector<TermRef> args(store_->arity(goal));
  for (uint32_t i = 0; i < store_->arity(goal); ++i) {
    args[i] = store_->arg(goal, i);
  }
  return store_->MakeStruct(sym, args);
}

prore::Result<TermRef> Pipeline::EmitSeq(const BodyNode& node,
                                         AbstractEnv* env, bool rename) {
  std::vector<TermRef> parts;
  if (node.kind == BodyKind::kConj) {
    for (const auto& child : node.children) {
      PRORE_ASSIGN_OR_RETURN(TermRef t, EmitNode(*child, env, rename));
      parts.push_back(t);
    }
  } else {
    PRORE_ASSIGN_OR_RETURN(TermRef t, EmitNode(node, env, rename));
    parts.push_back(t);
  }
  if (parts.empty()) return store_->MakeAtom(SymbolTable::kTrue);
  TermRef body = parts.back();
  for (size_t i = parts.size() - 1; i-- > 0;) {
    const TermRef args[] = {parts[i], body};
    body = store_->MakeStruct(SymbolTable::kComma, args);
  }
  return body;
}

prore::Result<TermRef> Pipeline::EmitNode(const BodyNode& node,
                                          AbstractEnv* env, bool rename) {
  switch (node.kind) {
    case BodyKind::kTrue:
      return store_->MakeAtom(SymbolTable::kTrue);
    case BodyKind::kFail:
      return store_->MakeAtom(SymbolTable::kFail);
    case BodyKind::kCut:
      return store_->MakeAtom(SymbolTable::kCut);
    case BodyKind::kCall: {
      TermRef renamed = rename ? RenameGoal(node.goal, *env)
                               : store_->Deref(node.goal);
      costs_->AdvanceEnv(node, env);
      return renamed;
    }
    case BodyKind::kConj:
      return EmitSeq(node, env, rename);
    case BodyKind::kDisj: {
      AbstractEnv left = *env, right = *env;
      PRORE_ASSIGN_OR_RETURN(TermRef l,
                             EmitSeq(*node.children[0], &left, rename));
      PRORE_ASSIGN_OR_RETURN(TermRef r,
                             EmitSeq(*node.children[1], &right, rename));
      *env = AbstractEnv::Join(left, right);
      const TermRef args[] = {l, r};
      return store_->MakeStruct(SymbolTable::kSemicolon, args);
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env, else_env = *env;
      PRORE_ASSIGN_OR_RETURN(TermRef c,
                             EmitSeq(*node.children[0], &then_env, rename));
      PRORE_ASSIGN_OR_RETURN(TermRef t,
                             EmitSeq(*node.children[1], &then_env, rename));
      PRORE_ASSIGN_OR_RETURN(TermRef e,
                             EmitSeq(*node.children[2], &else_env, rename));
      *env = AbstractEnv::Join(then_env, else_env);
      const TermRef ite_args[] = {c, t};
      TermRef ite = store_->MakeStruct(SymbolTable::kArrow, ite_args);
      // Preserve a bare if-then (no else in the source).
      TermRef orig = store_->Deref(node.goal);
      bool bare = store_->tag(orig) == Tag::kStruct &&
                  store_->symbol(orig) == SymbolTable::kArrow;
      if (bare) return ite;
      const TermRef args[] = {ite, e};
      return store_->MakeStruct(SymbolTable::kSemicolon, args);
    }
    case BodyKind::kNeg: {
      AbstractEnv scratch = *env;
      PRORE_ASSIGN_OR_RETURN(TermRef inner,
                             EmitSeq(*node.children[0], &scratch, rename));
      const TermRef args[] = {inner};
      return store_->MakeStruct(SymbolTable::kNot, args);
    }
    case BodyKind::kSetPred: {
      AbstractEnv scratch = *env;
      PRORE_ASSIGN_OR_RETURN(TermRef inner,
                             EmitSeq(*node.children[0], &scratch, rename));
      TermRef goal = store_->Deref(node.goal);
      const TermRef args[] = {store_->arg(goal, 0), inner,
                              store_->arg(goal, 2)};
      TermRef rebuilt = store_->MakeStruct(store_->symbol(goal), args);
      costs_->AdvanceEnv(node, env);
      return rebuilt;
    }
    case BodyKind::kCatch: {
      // Rebuild catch(Goal, Catcher, Recovery) verbatim (goals emitted in
      // place, never renamed: a mode-specialized version may commit to a
      // different clause order, changing which exception escapes first).
      AbstractEnv goal_env = *env, rec_env = *env;
      PRORE_ASSIGN_OR_RETURN(TermRef inner,
                             EmitSeq(*node.children[0], &goal_env,
                                     /*rename=*/false));
      PRORE_ASSIGN_OR_RETURN(TermRef recovery,
                             EmitSeq(*node.children[1], &rec_env,
                                     /*rename=*/false));
      TermRef goal = store_->Deref(node.goal);
      const TermRef args[] = {inner, store_->arg(goal, 1), recovery};
      TermRef rebuilt = store_->MakeStruct(store_->symbol(goal), args);
      costs_->AdvanceEnv(node, env);
      return rebuilt;
    }
  }
  return store_->MakeAtom(SymbolTable::kTrue);
}

prore::Status Pipeline::BuildVersion(const PredId& pred, const Mode& mode,
                                     Version* out) {
  bool allow = AllowReorder(pred);
  const bool clause_only = options_.clause_order_only.count(pred) > 0;
  const bool allow_goals = allow && !clause_only;
  const auto& clauses = original_.ClausesOf(pred);

  // Identity level of the degradation ladder: the original clauses are
  // reused verbatim (same TermRefs — bit-identical emission), under the
  // original name, with no analysis-driven decisions in the path. It runs
  // no transform stages, so it is also exempt from fault injection —
  // identity must stay reachable under any fault plan.
  if (options_.identity_preds.count(pred) > 0) {
    out->clauses = clauses;
    out->emitted_under_original_name = true;
    out->predicted_original_cost = costs_->StatsFor(pred, mode).cost_all;
    out->predicted_new_cost = out->predicted_original_cost;
    PredModeReport report;
    report.pred = pred;
    report.mode = mode;
    report.version_name = store_->symbols().Name(pred.name);
    report.predicted_original_cost = out->predicted_original_cost;
    report.predicted_new_cost = out->predicted_new_cost;
    reports_.push_back(report);
    return prore::Status::OK();
  }

  if (options_.fault != nullptr) {
    PRORE_RETURN_IF_ERROR(options_.fault->Check(pred, "build"));
  }

  // Stats of the original, for the report (memoize before overriding).
  cost::PredModeStats original_stats = costs_->StatsFor(pred, mode);
  out->predicted_original_cost = original_stats.cost_all;

  // Clause order.
  std::vector<size_t> clause_order(clauses.size());
  for (size_t i = 0; i < clause_order.size(); ++i) clause_order[i] = i;
  if (allow && options_.reorder_clauses) {
    if (options_.fault != nullptr) {
      PRORE_RETURN_IF_ERROR(options_.fault->Check(pred, "clause_order"));
    }
    PRORE_ASSIGN_OR_RETURN(
        ClauseOrderResult co,
        OrderClauses(*store_, original_, pred, mode, costs_.get(), fixity_));
    clause_order = co.order;
    out->clauses_changed = co.changed;
  }

  // Goal order per clause: phase A (reorder trees), stats, phase B (emit).
  struct ReorderedClause {
    TermRef head;
    std::unique_ptr<BodyNode> tree;  // null for facts
    /// §V-D run-time guard: a better order valid when the head arguments
    /// are ground at run time; emitted as
    /// `( ground(A1),... -> optimistic ; normal )`.
    std::unique_ptr<BodyNode> optimistic_tree;
  };
  bool want_guards =
      options_.runtime_guards && allow_goals && options_.reorder_goals &&
      std::any_of(mode.begin(), mode.end(),
                  [](ModeItem m) { return m != ModeItem::kPlus; });
  if (options_.fault != nullptr && allow_goals && options_.reorder_goals) {
    PRORE_RETURN_IF_ERROR(options_.fault->Check(pred, "goal_order"));
  }
  std::vector<ReorderedClause> reordered;
  bool goals_changed = false;
  for (size_t idx : clause_order) {
    const reader::Clause& clause = clauses[idx];
    ReorderedClause rc;
    rc.head = store_->Deref(clause.head);
    TermRef body = store_->Deref(clause.body);
    bool is_fact = store_->tag(body) == Tag::kAtom &&
                   store_->symbol(body) == SymbolTable::kTrue;
    if (!is_fact) {
      PRORE_ASSIGN_OR_RETURN(auto tree, analysis::ParseBody(*store_, body));
      AbstractEnv env = analysis::EnvFromHead(*store_, rc.head, mode);
      PRORE_ASSIGN_OR_RETURN(rc.tree,
                             ReorderSeq(*tree, &env, allow_goals,
                                        &goals_changed));
      if (want_guards) {
        // Reorder again under the all-instantiated assumption; keep the
        // result only if it is a different order with a markedly better
        // predicted cost under that assumption.
        Mode optimistic(pred.arity, ModeItem::kPlus);
        PRORE_ASSIGN_OR_RETURN(auto tree2,
                               analysis::ParseBody(*store_, body));
        AbstractEnv opt_env =
            analysis::EnvFromHead(*store_, rc.head, optimistic);
        bool opt_changed = false;
        PRORE_ASSIGN_OR_RETURN(auto opt_tree,
                               ReorderSeq(*tree2, &opt_env, allow_goals,
                                          &opt_changed));
        if (opt_changed) {
          auto cost_of = [&](const BodyNode& t)
              -> prore::Result<double> {
            AbstractEnv e = analysis::EnvFromHead(*store_, rc.head,
                                                  optimistic);
            std::vector<const BodyNode*> seq;
            if (t.kind == BodyKind::kConj) {
              for (const auto& child : t.children) seq.push_back(child.get());
            } else {
              seq.push_back(&t);
            }
            PRORE_ASSIGN_OR_RETURN(auto eval, costs_->EvaluateSequence(seq, e));
            return eval.chain.cost_all_solutions;
          };
          PRORE_ASSIGN_OR_RETURN(double normal_cost, cost_of(*rc.tree));
          PRORE_ASSIGN_OR_RETURN(double opt_cost, cost_of(*opt_tree));
          if (opt_cost * options_.guard_min_gain < normal_cost) {
            rc.optimistic_tree = std::move(opt_tree);
            goals_changed = true;
          }
        }
      }
    }
    reordered.push_back(std::move(rc));
  }
  out->goals_changed = goals_changed;

  // Stats of the reordered version: combine clauses exactly the way the
  // cost model does for the original.
  {
    std::vector<double> clause_p, clause_c;
    double fail_all = 1.0, sols = 0.0, cost_all = 1.0;
    for (const ReorderedClause& rc : reordered) {
      double match = costs_->HeadMatchProb(pred, rc.head, mode);
      double p_body = 1.0, c_single = 0.0, c_all = 0.0, body_sols = 1.0;
      if (rc.tree != nullptr) {
        AbstractEnv env = analysis::EnvFromHead(*store_, rc.head, mode);
        std::vector<const BodyNode*> seq;
        if (rc.tree->kind == BodyKind::kConj) {
          for (const auto& child : rc.tree->children) {
            seq.push_back(child.get());
          }
        } else {
          seq.push_back(rc.tree.get());
        }
        auto eval = costs_->EvaluateSequence(seq, env);
        if (!eval.ok() &&
            eval.status().code() == prore::StatusCode::kResourceExhausted) {
          return eval.status();  // watchdog trip: abort, don't mis-estimate
        }
        if (eval.ok()) {
          p_body = std::min(1.0, eval->chain.success_prob);
          c_single = eval->chain.cost_single;
          c_all = std::isfinite(eval->chain.cost_all_solutions)
                      ? eval->chain.cost_all_solutions
                      : 1e12;
          body_sols = std::min(1e9, eval->chain.expected_solutions);
        }
      }
      clause_p.push_back(std::min(1.0, match * p_body));
      clause_c.push_back(std::max(0.0, match * c_single));
      fail_all *= 1.0 - std::min(1.0, match * p_body);
      sols += match * body_sols;
      cost_all += match * c_all;
    }
    cost::PredModeStats stats;
    stats.success_prob = std::min(1.0, std::max(0.0, 1.0 - fail_all));
    stats.expected_solutions = sols;
    stats.cost_single =
        1.0 + cost::ExpectedSingleCallCost(clause_p, clause_c);
    stats.cost_all = std::min(1e12, cost_all);
    out->predicted_new_cost = stats.cost_all;
    costs_->SetOverride(pred, mode, stats);
  }

  // Phase B: emit clause terms with goal renaming.
  if (options_.fault != nullptr) {
    PRORE_RETURN_IF_ERROR(options_.fault->Check(pred, "emit"));
  }
  term::Symbol version_sym = store_->symbols().Intern(out->name);
  bool rename = options_.specialize_modes && !clause_only;
  bool keep_name = !options_.specialize_modes || pred.arity == 0 ||
                   pred.arity > options_.max_dispatch_arity || clause_only;
  out->emitted_under_original_name = keep_name;
  for (size_t i = 0; i < reordered.size(); ++i) {
    const ReorderedClause& rc = reordered[i];
    reader::Clause emitted;
    if (keep_name) {
      emitted.head = rc.head;
    } else if (pred.arity == 0) {
      emitted.head = store_->MakeAtom(version_sym);
    } else {
      std::vector<TermRef> args(pred.arity);
      for (uint32_t a = 0; a < pred.arity; ++a) {
        args[a] = store_->arg(rc.head, a);
      }
      emitted.head = store_->MakeStruct(version_sym, args);
    }
    if (rc.tree == nullptr) {
      emitted.body = store_->MakeAtom(SymbolTable::kTrue);
    } else {
      AbstractEnv env = analysis::EnvFromHead(*store_, rc.head, mode);
      PRORE_ASSIGN_OR_RETURN(emitted.body, EmitSeq(*rc.tree, &env, rename));
      if (rc.optimistic_tree != nullptr) {
        // ( ground(A1), ... -> optimistic-order ; normal-order ).
        Mode optimistic(pred.arity, ModeItem::kPlus);
        AbstractEnv opt_env =
            analysis::EnvFromHead(*store_, rc.head, optimistic);
        PRORE_ASSIGN_OR_RETURN(TermRef opt_body,
                               EmitSeq(*rc.optimistic_tree, &opt_env,
                                       rename));
        term::Symbol ground_sym = store_->symbols().Intern("ground");
        TermRef guard = term::kNullTerm;
        for (uint32_t a = pred.arity; a-- > 0;) {
          if (mode[a] == ModeItem::kPlus) continue;  // already assumed
          const TermRef test_args[] = {store_->arg(rc.head, a)};
          TermRef test = store_->MakeStruct(ground_sym, test_args);
          if (guard == term::kNullTerm) {
            guard = test;
          } else {
            const TermRef conj_args[] = {test, guard};
            guard = store_->MakeStruct(SymbolTable::kComma, conj_args);
          }
        }
        if (guard != term::kNullTerm) {
          const TermRef ite_args[] = {guard, opt_body};
          TermRef ite = store_->MakeStruct(SymbolTable::kArrow, ite_args);
          const TermRef disj_args[] = {ite, emitted.body};
          emitted.body = store_->MakeStruct(SymbolTable::kSemicolon,
                                            disj_args);
        }
      }
    }
    out->clauses.push_back(emitted);
  }

  if (options_.fault != nullptr && out->clauses.size() > 1 &&
      options_.fault->drop_last_clause.count(pred) > 0) {
    out->clauses.pop_back();  // planted miscompile (see core/fault.h)
    ++options_.fault->fired;
  }

  PredModeReport report;
  report.pred = pred;
  report.mode = mode;
  report.version_name = keep_name ? store_->symbols().Name(pred.name)
                                  : out->name;
  report.clauses_changed = out->clauses_changed;
  report.goals_changed = out->goals_changed;
  report.predicted_original_cost = out->predicted_original_cost;
  report.predicted_new_cost = out->predicted_new_cost;
  reports_.push_back(report);
  return prore::Status::OK();
}

void Pipeline::ComputeAliases() {
  // Versions of the same predicate whose clause text is identical modulo
  // the version name collapse into one (the paper: "the reorderer produces
  // only one or two distinct versions" in many cases).
  reader::WriteOptions wopts;
  wopts.var_names = false;
  // Iterate to a fixpoint: two versions may become identical only after
  // their callees' versions have merged (g_iu calls f_iu, g_uu calls f_uu;
  // once f_iu == f_uu the g versions merge too).
  // The loop is bounded — each round merges at least one version — but a
  // belt-and-braces cap keeps a merge-logic bug from hanging the build;
  // stopping early only leaves duplicate versions in the output.
  bool alias_changed = true;
  size_t rounds = 0;
  const size_t max_rounds = versions_.size() + 8;
  while (alias_changed && rounds++ < max_rounds) {
    alias_changed = false;
  for (auto& [pred, keys] : versions_of_) {
    std::map<std::string, std::string> canonical_by_text;
    for (const std::string& key : keys) {
      Version& v = versions_[key];
      if (v.emitted_under_original_name) continue;
      if (alias_.count(v.name) > 0) continue;  // already merged away
      std::string text;
      for (const reader::Clause& clause : v.clauses) {
        reader::Clause resolved = clause;
        resolved.body = RewriteAliases(clause.body);
        std::string t = reader::WriteClause(*store_, resolved, wopts);
        // Normalize self-references: whole names only (male_u inside
        // female_u is not one).
        auto ident = [](char c) {
          return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
        };
        for (size_t pos = t.find(v.name); pos != std::string::npos;
             pos = t.find(v.name, pos + 1)) {
          const size_t end = pos + v.name.size();
          if ((pos > 0 && ident(t[pos - 1])) ||
              (end < t.size() && ident(t[end]))) {
            continue;
          }
          t.replace(pos, v.name.size(), "$SELF");
        }
        text += t;
        text.push_back('\n');
      }
      // Normalize variable numbering (_G<id> differs between otherwise
      // identical versions): rename to V<k> in first-occurrence order.
      {
        std::string normalized;
        std::map<std::string, std::string> var_names;
        for (size_t i = 0; i < text.size();) {
          if (text[i] == '_' && i + 1 < text.size() && text[i + 1] == 'G') {
            size_t j = i + 2;
            while (j < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[j]))) {
              ++j;
            }
            std::string var = text.substr(i, j - i);
            std::string fresh_name = "V";
            fresh_name += std::to_string(var_names.size());
            auto [vit, fresh] = var_names.emplace(var,
                                                  std::move(fresh_name));
            (void)fresh;
            normalized += vit->second;
            i = j;
          } else {
            normalized.push_back(text[i]);
            ++i;
          }
        }
        text = std::move(normalized);
      }
      auto [it, inserted] = canonical_by_text.emplace(text, v.name);
      if (!inserted) {
        alias_[v.name] = it->second;
        alias_changed = true;
      }
    }
  }
  }
  if (alias_changed) {
    diagnostics_.push_back(lint::Diagnostic{
        "PL211", lint::Severity::kNote, {}, "",
        prore::StrFormat("alias fixpoint stopped after %zu rounds; some "
                         "duplicate versions were kept",
                         max_rounds)});
  }
}

/// Follows alias chains to the surviving canonical name: the fixpoint loop
/// of ComputeAliases can merge A into B in one round and B into C in a
/// later one, so a single map lookup may land on a name that was itself
/// merged away.
std::string Pipeline::ResolveAlias(std::string name) const {
  auto it = alias_.find(name);
  while (it != alias_.end()) {
    name = it->second;
    it = alias_.find(name);
  }
  return name;
}

TermRef Pipeline::RewriteAliases(TermRef t) {
  t = store_->Deref(t);
  switch (store_->tag(t)) {
    case Tag::kVar:
    case Tag::kInt:
    case Tag::kFloat:
      return t;
    case Tag::kAtom: {
      const std::string& name = store_->symbols().Name(store_->symbol(t));
      std::string canonical = ResolveAlias(name);
      if (canonical == name) return t;
      return store_->MakeAtom(store_->symbols().Intern(canonical));
    }
    case Tag::kStruct: {
      std::vector<TermRef> args(store_->arity(t));
      bool changed = false;
      for (uint32_t i = 0; i < store_->arity(t); ++i) {
        args[i] = RewriteAliases(store_->arg(t, i));
        if (args[i] != store_->Deref(store_->arg(t, i))) changed = true;
      }
      term::Symbol sym = store_->symbol(t);
      const std::string& name = store_->symbols().Name(sym);
      std::string canonical = ResolveAlias(name);
      if (canonical != name) {
        sym = store_->symbols().Intern(canonical);
        changed = true;
      }
      if (!changed) return t;
      return store_->MakeStruct(sym, args);
    }
  }
  return t;
}

std::string Pipeline::TargetFor(const PredId& pred, const Mode& combo) const {
  const auto it = versions_of_.find(pred);
  if (it == versions_of_.end()) return store_->symbols().Name(pred.name);
  std::string exact = Reorderer::VersionName(*store_, pred, combo);
  std::string best_name;
  int best_matches = -1;
  std::string least_demanding;
  int least_plus = 1 << 20;
  for (const std::string& key : it->second) {
    const Version& v = versions_.at(key);
    if (v.name == exact) return v.name;
    // Compatible: every '+' the version assumes is '+' in the combo.
    bool compatible = true;
    int matches = 0, plus = 0;
    for (size_t i = 0; i < combo.size(); ++i) {
      if (v.mode[i] == ModeItem::kPlus) {
        ++plus;
        if (combo[i] == ModeItem::kPlus) {
          ++matches;
        } else {
          compatible = false;
        }
      }
    }
    if (compatible && matches > best_matches) {
      best_matches = matches;
      best_name = v.name;
    }
    if (plus < least_plus) {
      least_plus = plus;
      least_demanding = v.name;
    }
  }
  if (!best_name.empty()) return best_name;
  if (!least_demanding.empty()) return least_demanding;
  return store_->symbols().Name(pred.name);
}

prore::Status Pipeline::EmitDispatcher(const PredId& pred,
                                       reader::Program* out) {
  // P(X1..Xn) :- ( var(X1) -> ( var(X2) -> P_uu(..) ; P_ui(..) )
  //              ; ( var(X2) -> P_iu(..) ; P_ii(..) ) ).
  std::vector<TermRef> args(pred.arity);
  for (uint32_t i = 0; i < pred.arity; ++i) {
    args[i] = store_->MakeVar(prore::StrFormat("X%u", i + 1));
  }
  // The tag test is free in the paper's cost model ("the Prolog engine
  // needs merely to test two tag bits"); '$var_test'/1 behaves like var/1
  // but is not counted as a call by the engine.
  term::Symbol var_sym = store_->symbols().Intern("$var_test");

  std::function<TermRef(uint32_t, Mode&)> build =
      [&](uint32_t i, Mode& combo) -> TermRef {
    if (i == pred.arity) {
      // Resolve aliases at dispatch time too.
      std::string target = ResolveAlias(TargetFor(pred, combo));
      term::Symbol sym = store_->symbols().Intern(target);
      if (pred.arity == 0) return store_->MakeAtom(sym);
      return store_->MakeStruct(sym, args);
    }
    const TermRef test_args[] = {args[i]};
    TermRef test = store_->MakeStruct(var_sym, test_args);
    combo.push_back(ModeItem::kMinus);
    TermRef then_branch = build(i + 1, combo);
    combo.back() = ModeItem::kPlus;
    TermRef else_branch = build(i + 1, combo);
    combo.pop_back();
    const TermRef ite_args[] = {test, then_branch};
    TermRef ite = store_->MakeStruct(SymbolTable::kArrow, ite_args);
    const TermRef disj_args[] = {ite, else_branch};
    return store_->MakeStruct(SymbolTable::kSemicolon, disj_args);
  };

  // If every {+,-} combination dispatches to the same version, skip the
  // tag tests entirely (the common case after deduplication).
  std::string single_target;
  bool all_same = true;
  {
    uint32_t combos = 1u << pred.arity;
    for (uint32_t bits = 0; bits < combos && all_same; ++bits) {
      Mode m(pred.arity);
      for (uint32_t i = 0; i < pred.arity; ++i) {
        m[i] = (bits >> i) & 1 ? ModeItem::kPlus : ModeItem::kMinus;
      }
      std::string target = ResolveAlias(TargetFor(pred, m));
      if (bits == 0) {
        single_target = target;
      } else if (target != single_target) {
        all_same = false;
      }
    }
  }

  Mode combo;
  reader::Clause dispatcher;
  dispatcher.head = pred.arity == 0
                        ? store_->MakeAtom(pred.name)
                        : store_->MakeStruct(pred.name, args);
  if (all_same) {
    term::Symbol sym = store_->symbols().Intern(single_target);
    dispatcher.body = pred.arity == 0 ? store_->MakeAtom(sym)
                                      : store_->MakeStruct(sym, args);
  } else {
    dispatcher.body = build(0, combo);
  }
  if (!out->AddClause(*store_, dispatcher)) {
    return prore::Status::Internal("dispatcher head not callable");
  }
  return prore::Status::OK();
}

prore::Result<reader::Program> Pipeline::Assemble() {
  reader::Program out;
  for (const PredId& pred : original_.pred_order()) {
    if (External(pred)) continue;
    auto it = versions_of_.find(pred);
    if (it == versions_of_.end()) {
      // Untouched predicate (shouldn't happen; defensive copy).
      for (const reader::Clause& clause : original_.ClausesOf(pred)) {
        out.AddClause(*store_, clause);
      }
      continue;
    }
    bool any_specialized = false;
    for (const std::string& key : it->second) {
      Version& v = versions_.at(key);
      if (!v.emitted_under_original_name &&
          alias_.count(v.name) > 0) {
        continue;  // merged into its canonical twin
      }
      if (!v.emitted_under_original_name) any_specialized = true;
      for (reader::Clause clause : v.clauses) {
        clause.body = RewriteAliases(clause.body);
        if (!out.AddClause(*store_, clause)) {
          return prore::Status::Internal("bad clause head in version");
        }
      }
      if (v.emitted_under_original_name) break;  // one version is enough
    }
    if (any_specialized) {
      PRORE_RETURN_IF_ERROR(EmitDispatcher(pred, &out));
    }
  }
  for (TermRef d : original_.directives()) out.AddDirective(d);
  return out;
}

CalleeSummary Pipeline::Publish() const {
  CalleeSummary out;
  std::unordered_set<std::string> owned;  // "name/arity", the memo prefix
  for (const PredModeReport& r : reports_) {
    out.versions.push_back(
        lint::VersionInfo{r.pred, r.mode, ResolveAlias(r.version_name)});
    owned.insert(reader::PredName(*store_, r.pred));
  }
  for (const auto& [key, stats] : costs_->memo()) {
    if (owned.count(key.substr(0, key.rfind(':'))) > 0) {
      out.stats.emplace_back(key, stats);
    }
  }
  return out;
}

prore::Result<ReorderResult> Pipeline::Run() {
  PRORE_RETURN_IF_ERROR(Setup());

  // Seed versions.
  for (const PredId& pred : original_.pred_order()) {
    if (External(pred)) continue;
    if (!options_.specialize_modes || pred.arity == 0 ||
        pred.arity > options_.max_dispatch_arity ||
        options_.identity_preds.count(pred) > 0 ||
        options_.clause_order_only.count(pred) > 0) {
      // Single version under the original name, ordered for the weakest
      // assumption (all-'?') so any call stays legal. Quarantined
      // predicates (identity / clause-order-only) always take this path.
      EnsureVersion(pred, Mode(pred.arity, ModeItem::kAny));
      continue;
    }
    uint32_t combos = 1u << pred.arity;
    size_t added = 0;
    for (uint32_t bits = 0; bits < combos; ++bits) {
      Mode m(pred.arity);
      for (uint32_t i = 0; i < pred.arity; ++i) {
        m[i] = (bits >> i) & 1 ? ModeItem::kPlus : ModeItem::kMinus;
      }
      if (!oracle_->IsLegalCall(pred, m)) continue;
      EnsureVersion(pred, m);
      ++added;
    }
    if (added == 0) {
      diagnostics_.push_back(lint::Diagnostic{
          "PL210", lint::Severity::kNote, {},
          reader::PredName(*store_, pred),
          "no legal {+,-} mode; emitting the predicate unspecialized"});
      EnsureVersion(pred, Mode(pred.arity, ModeItem::kAny));
    }
  }

  PRORE_RETURN_IF_ERROR(ProcessQueue());
  if (options_.specialize_modes) ComputeAliases();

  ReorderResult result;
  PRORE_ASSIGN_OR_RETURN(result.program, Assemble());

  if (options_.validate_output) {
    // Only what this run emits is checked, against its own predicates'
    // original clauses; calls into external predicates resolve through
    // the callees' published versions.
    reader::Program owned;
    analysis::PredSet called;
    lint::ReorderCheckInput check;
    check.original = external_.empty() ? &original_ : &owned;
    check.transformed = &result.program;
    for (const PredModeReport& report : reports_) {
      check.versions.push_back(
          lint::VersionInfo{report.pred, report.mode, report.version_name});
    }
    check.modes = &patterns_->modes;
    check.oracle = oracle_.get();
    check.fixity = &fixity_;
    for (const PredId& pred : original_.pred_order()) {
      if (External(pred)) continue;
      if (!AllowReorder(pred)) check.no_reorder.insert(pred);
      if (external_.empty()) continue;
      for (const reader::Clause& clause : original_.ClausesOf(pred)) {
        owned.AddClause(*store_, clause);
      }
      for (const PredId& callee : graph_.Callees(pred)) called.insert(callee);
    }
    for (const CalleeSummary* callee : Callees()) {
      for (const lint::VersionInfo& v : callee->versions) {
        if (called.count(v.pred) > 0) check.versions.push_back(v);
      }
    }
    std::vector<lint::Diagnostic> findings =
        lint::ValidateReorder(store_, check);
    diagnostics_.insert(diagnostics_.end(),
                        std::make_move_iterator(findings.begin()),
                        std::make_move_iterator(findings.end()));
  }

  result.summary = Publish();
  result.reports = std::move(reports_);
  result.diagnostics = std::move(diagnostics_);
  return result;
}

}  // namespace

prore::Result<ReorderResult> Reorderer::Run(const reader::Program& original,
                                            const GroupContext* group) {
  // A cancelled or past-deadline context never starts new work; mid-run
  // interruption happens inside the analyses via their watchdogs.
  PRORE_RETURN_IF_ERROR(options_.exec.Check());
  Pipeline pipeline(store_, original, options_, group);
  return pipeline.Run();
}

}  // namespace prore::core
