#include "core/goal_order.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "engine/builtins.h"
#include "markov/chain.h"

namespace prore::core {

using analysis::AbstractEnv;
using analysis::BodyKind;
using analysis::BodyNode;
using analysis::Mode;
using analysis::VarState;
using term::PredId;
using term::TermRef;
using term::TermStore;

/// Safety valve for A*: expansions per search.
constexpr size_t kMaxExpansions = 200000;

std::vector<uint32_t> GoalOrderSearch::CulpritVars(const BodyNode& node) const {
  std::vector<uint32_t> out;
  for (TermRef v : analysis::ModeSensitiveVars(*store_, node, *fixity_)) {
    out.push_back(store_->var_id(v));
  }
  return out;
}

std::vector<SemifixConstraint> GoalOrderSearch::OriginalSignatures(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env) {
  std::vector<SemifixConstraint> sigs(elements.size());
  AbstractEnv env = start_env;
  for (size_t i = 0; i < elements.size(); ++i) {
    for (uint32_t var : CulpritVars(*elements[i])) {
      sigs[i].required.emplace_back(var, env.Get(var));
    }
    // All variables of the element: the at-least-original fallback rule.
    std::vector<TermRef> vars;
    store_->CollectVars(elements[i]->goal, &vars);
    for (TermRef v : vars) {
      uint32_t id = store_->var_id(v);
      sigs[i].original_states.emplace_back(id, env.Get(id));
    }
    // Advance the environment exactly the way candidate placement does.
    auto step = costs_->Place(*elements[i], env);
    if (step.ok()) env = std::move(step->env_after);
  }
  return sigs;
}

bool GoalOrderSearch::SatisfiesConstraint(const SemifixConstraint& c,
                                          const AbstractEnv& env) const {
  for (const auto& [var, state] : c.required) {
    if (env.Get(var) != state) return false;
  }
  return true;
}

namespace {
int InstRank(VarState s) {
  switch (s) {
    case VarState::kFree:
      return 0;
    case VarState::kUnknown:
      return 1;
    case VarState::kGround:
      return 2;
  }
  return 0;
}
}  // namespace

bool GoalOrderSearch::AtLeastOriginal(const SemifixConstraint& c,
                                      const AbstractEnv& env) const {
  for (const auto& [var, state] : c.original_states) {
    if (InstRank(env.Get(var)) < InstRank(state)) return false;
  }
  return true;
}

prore::Result<OrderResult> GoalOrderSearch::FindBestOrder(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env) {
  OrderResult result;
  result.order = elements;
  auto original = costs_->EvaluateSequence(elements, start_env);
  if (!original.ok()) return original.status();
  result.cost_all = original->chain.cost_all_solutions;
  result.original_cost = result.cost_all;
  if (elements.size() < 2) return result;

  std::vector<SemifixConstraint> sigs = OriginalSignatures(elements,
                                                           start_env);
  prore::Result<OrderResult> candidate(result);
  if (options_.warren_heuristic) {
    candidate = WarrenGreedy(elements, start_env, sigs);
  } else if (elements.size() <= options_.exhaustive_threshold) {
    candidate = Exhaustive(elements, start_env, sigs);
  } else if (options_.use_astar) {
    candidate = AStar(elements, start_env, sigs);
  } else {
    return result;  // too large; keep original
  }
  if (!candidate.ok()) return candidate.status();
  // Accept only a strict improvement over the original order.
  if (candidate->cost_all + 1e-9 < result.cost_all) {
    candidate->original_cost = result.original_cost;
    candidate->changed = candidate->order != elements;
    return *candidate;
  }
  result.nodes_considered = candidate->nodes_considered;
  return result;
}

prore::Result<OrderResult> GoalOrderSearch::Exhaustive(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env,
    const std::vector<SemifixConstraint>& sigs) {
  OrderResult best;
  best.cost_all = std::numeric_limits<double>::infinity();
  size_t considered = 0;

  std::vector<const BodyNode*> prefix;
  // The all-solutions chain states of the prefix's placements.
  std::vector<markov::GoalStats> stats;
  std::vector<bool> used(elements.size(), false);

  // A kResourceExhausted placement (cost-model watchdog) must abort the
  // whole search, not be skipped like an ordinary illegal candidate.
  prore::Status trip;

  // DFS over legal prefixes; score complete orders from the stats their
  // placements collected — the value EvaluateSequence(prefix, start_env)
  // would compute from the same stats.
  std::function<void(const AbstractEnv&)> recurse =
      [&](const AbstractEnv& env) {
        if (!trip.ok()) return;
        if (prefix.size() == elements.size()) {
          ++considered;
          // Placement checks during the DFS already established legality
          // (oracle-proven or at-least-original).
          double cost = markov::ClosedFormAllSolutionsCost(stats);
          if (cost < best.cost_all) {
            best.cost_all = cost;
            best.order = prefix;
          }
          return;
        }
        for (size_t i = 0; i < elements.size(); ++i) {
          if (used[i]) continue;
          if (!trip.ok()) return;
          // Legality + semifixity at this placement. Legal means: the
          // oracle proves every call's demands, OR the element sees all
          // its variables at least as instantiated as in the original
          // order (upward closure).
          auto step = costs_->Place(*elements[i], env);
          if (!step.ok()) {
            if (step.status().code() ==
                prore::StatusCode::kResourceExhausted) {
              trip = step.status();
            }
            continue;
          }
          if (!step->legal && !AtLeastOriginal(sigs[i], env)) continue;
          if (!SatisfiesConstraint(sigs[i], env)) continue;
          used[i] = true;
          prefix.push_back(elements[i]);
          stats.push_back(step->visit);
          recurse(step->env_after);
          stats.pop_back();
          prefix.pop_back();
          used[i] = false;
        }
      };
  recurse(start_env);
  if (!trip.ok()) return trip;
  best.nodes_considered = considered;
  if (!std::isfinite(best.cost_all)) {
    // No legal complete order found; signal "keep original" via +inf cost.
    best.order = elements;
  }
  return best;
}

prore::Result<OrderResult> GoalOrderSearch::AStar(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env,
    const std::vector<SemifixConstraint>& sigs) {
  struct Node {
    double f;  // closed-form all-solutions cost of the prefix (admissible)
    std::vector<size_t> prefix;
    AbstractEnv env;
    std::vector<markov::GoalStats> stats;
    bool operator>(const Node& o) const { return f > o.f; }
  };
  // A binary min-heap on f, kept by hand (what std::priority_queue does)
  // so the popped node can be moved out instead of copied.
  std::vector<Node> open;
  open.push_back(Node{0.0, {}, start_env, {}});
  size_t expansions = 0;
  OrderResult best;
  best.cost_all = std::numeric_limits<double>::infinity();
  best.order = elements;

  while (!open.empty() && expansions < kMaxExpansions) {
    std::pop_heap(open.begin(), open.end(), std::greater<Node>());
    Node node = std::move(open.back());
    open.pop_back();
    ++expansions;
    if (node.prefix.size() == elements.size()) {
      // First complete node popped is optimal (admissible heuristic).
      best.cost_all = node.f;
      best.order.clear();
      for (size_t i : node.prefix) best.order.push_back(elements[i]);
      break;
    }
    for (size_t i = 0; i < elements.size(); ++i) {
      if (std::find(node.prefix.begin(), node.prefix.end(), i) !=
          node.prefix.end()) {
        continue;
      }
      auto step = costs_->Place(*elements[i], node.env);
      if (!step.ok()) {
        if (step.status().code() == prore::StatusCode::kResourceExhausted) {
          return step.status();  // watchdog trip aborts the search
        }
        continue;
      }
      if (!step->legal && !AtLeastOriginal(sigs[i], node.env)) continue;
      if (!SatisfiesConstraint(sigs[i], node.env)) continue;
      Node next;
      next.prefix = node.prefix;
      next.prefix.push_back(i);
      next.env = std::move(step->env_after);
      next.stats = node.stats;
      next.stats.push_back(step->visit);
      next.f = markov::ClosedFormAllSolutionsCost(next.stats);
      open.push_back(std::move(next));
      std::push_heap(open.begin(), open.end(), std::greater<Node>());
    }
  }
  best.nodes_considered = expansions;
  return best;
}

prore::Result<OrderResult> GoalOrderSearch::WarrenGreedy(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env,
    const std::vector<SemifixConstraint>& sigs) {
  // Warren's method: at each step pick the legal goal with the smallest
  // "alternatives multiplier" — the expected number of clause-head matches
  // for the goal's current mode (tests score below 1, generators above).
  OrderResult result;
  AbstractEnv env = start_env;
  std::vector<bool> used(elements.size(), false);
  for (size_t step_no = 0; step_no < elements.size(); ++step_no) {
    double best_factor = std::numeric_limits<double>::infinity();
    size_t best_i = elements.size();
    AbstractEnv best_env;
    for (size_t i = 0; i < elements.size(); ++i) {
      if (used[i]) continue;
      auto step = costs_->Place(*elements[i], env);
      if (!step.ok()) {
        if (step.status().code() == prore::StatusCode::kResourceExhausted) {
          return step.status();  // watchdog trip aborts the search
        }
        continue;
      }
      if (!step->legal && !AtLeastOriginal(sigs[i], env)) continue;
      if (!SatisfiesConstraint(sigs[i], env)) continue;
      double factor;
      const BodyNode* node = elements[i];
      if (node->kind == BodyKind::kCall) {
        TermRef goal = store_->Deref(node->goal);
        PredId id = store_->pred_id(goal);
        Mode mode = env.CallModeOf(*store_, goal);
        factor = costs_->ExpectedMatches(id, mode);
        if (factor == 0.0) factor = step->visit.success_prob;
      } else {
        factor = step->visit.success_prob;
      }
      if (factor < best_factor) {
        best_factor = factor;
        best_i = i;
        best_env = std::move(step->env_after);
      }
    }
    if (best_i == elements.size()) {
      // Stuck (no legal placement); keep original.
      result.order = elements;
      auto eval = costs_->EvaluateSequence(elements, start_env);
      result.cost_all = eval.ok() ? eval->chain.cost_all_solutions
                                  : std::numeric_limits<double>::infinity();
      return result;
    }
    used[best_i] = true;
    result.order.push_back(elements[best_i]);
    env = best_env;
  }
  auto eval = costs_->EvaluateSequence(result.order, start_env);
  result.cost_all = eval.ok() ? eval->chain.cost_all_solutions
                              : std::numeric_limits<double>::infinity();
  result.nodes_considered = elements.size() * elements.size();
  return result;
}

}  // namespace prore::core
