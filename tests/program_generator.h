// The fuzz suites' random program generator, shared by the property
// tests (fuzz_test) and the cross-surface differential test.

#ifndef PRORE_TESTS_PROGRAM_GENERATOR_H_
#define PRORE_TESTS_PROGRAM_GENERATOR_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace prore::testing {

/// Deterministic random program generator. Structure:
///  - a pool of small constants;
///  - several fact predicates (arity 1-2);
///  - layered rule predicates: a rule only calls facts, built-in tests
///    (==/2, \==/2, =/2), negated fact goals, disjunctions of fact goals,
///    and strictly lower-layer rules — so everything terminates;
///  - occasionally a cut at a random body position.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint32_t seed) : rng_(seed) {}

  struct Generated {
    std::string source;
    std::vector<std::string> queries;
  };

  Generated Generate() {
    Generated out;
    size_t num_consts = 3 + rng_() % 4;
    for (size_t i = 0; i < num_consts; ++i) {
      constants_.push_back(prore::StrFormat("c%zu", i));
    }
    size_t num_facts = 2 + rng_() % 3;
    for (size_t i = 0; i < num_facts; ++i) {
      uint32_t arity = 1 + rng_() % 2;
      std::string name = prore::StrFormat("fact%zu", i);
      fact_preds_.push_back({name, arity});
      size_t tuples = 2 + rng_() % 6;
      for (size_t t = 0; t < tuples; ++t) {
        out.source += name + "(" + RandomConst();
        if (arity == 2) out.source += ", " + RandomConst();
        out.source += ").\n";
      }
    }
    size_t num_rules = 2 + rng_() % 3;
    for (size_t r = 0; r < num_rules; ++r) {
      uint32_t arity = 1 + rng_() % 2;
      std::string name = prore::StrFormat("rule%zu", r);
      size_t clauses = 1 + rng_() % 2;
      for (size_t c = 0; c < clauses; ++c) {
        out.source += MakeClause(name, arity, r);
      }
      rule_preds_.push_back({name, arity});
      // Queries: all-free, and one with the first argument bound.
      if (arity == 1) {
        out.queries.push_back(name + "(X)");
        out.queries.push_back(name + "(" + RandomConst() + ")");
      } else {
        out.queries.push_back(name + "(X, Y)");
        out.queries.push_back(name + "(" + RandomConst() + ", Y)");
        out.queries.push_back(name + "(X, " + RandomConst() + ")");
      }
    }
    return out;
  }

 private:
  struct Pred {
    std::string name;
    uint32_t arity;
  };

  const std::string& RandomConst() {
    return constants_[rng_() % constants_.size()];
  }

  std::string Var(uint32_t i) { return prore::StrFormat("V%u", i); }

  /// An argument: a head variable, a fresh body variable, or a constant.
  std::string RandomArg(uint32_t head_arity, uint32_t* fresh_counter) {
    switch (rng_() % 4) {
      case 0:
        return RandomConst();
      case 1:
        return Var(100 + (*fresh_counter)++);  // fresh local
      default:
        return Var(rng_() % head_arity);  // head variable
    }
  }

  std::string FactGoal(uint32_t head_arity, uint32_t* fresh) {
    const Pred& p = fact_preds_[rng_() % fact_preds_.size()];
    std::string goal = p.name + "(" + RandomArg(head_arity, fresh);
    if (p.arity == 2) goal += ", " + RandomArg(head_arity, fresh);
    return goal + ")";
  }

  std::string MakeClause(const std::string& name, uint32_t arity,
                         size_t layer) {
    uint32_t fresh = 0;
    std::string head = name + "(" + Var(0);
    if (arity == 2) head += ", " + Var(1);
    head += ")";
    std::vector<std::string> goals;
    // Always start by grounding the head variables so later tests are
    // meaningful (and negation behaves the same before/after reordering
    // thanks to the semifixity analysis — that's part of what we test).
    for (uint32_t v = 0; v < arity; ++v) {
      const Pred& p = fact_preds_[rng_() % fact_preds_.size()];
      std::string g = p.name + "(" + Var(v);
      if (p.arity == 2) g += ", " + Var(100 + fresh++);
      goals.push_back(g + ")");
    }
    size_t extras = rng_() % 3;
    for (size_t e = 0; e < extras; ++e) {
      switch (rng_() % 6) {
        case 0:
          goals.push_back(FactGoal(arity, &fresh));
          break;
        case 1:
          goals.push_back(Var(rng_() % arity) + " \\== " + RandomConst());
          break;
        case 2:
          goals.push_back("\\+ " + FactGoal(arity, &fresh));
          break;
        case 3:
          goals.push_back("( " + FactGoal(arity, &fresh) + " ; " +
                          FactGoal(arity, &fresh) + " )");
          break;
        case 4:
          if (layer > 0 && !rule_preds_.empty()) {
            const Pred& p = rule_preds_[rng_() % rule_preds_.size()];
            std::string g = p.name + "(" + RandomArg(arity, &fresh);
            if (p.arity == 2) g += ", " + RandomArg(arity, &fresh);
            goals.push_back(g + ")");
          } else {
            goals.push_back(FactGoal(arity, &fresh));
          }
          break;
        case 5:
          goals.push_back(Var(rng_() % arity) + " = " + RandomConst());
          break;
      }
    }
    // Occasionally a cut.
    if (rng_() % 5 == 0) {
      size_t pos = rng_() % (goals.size() + 1);
      goals.insert(goals.begin() + pos, "!");
    }
    std::string clause = head + " :- ";
    for (size_t i = 0; i < goals.size(); ++i) {
      if (i) clause += ", ";
      clause += goals[i];
    }
    return clause + ".\n";
  }

  std::mt19937 rng_;
  std::vector<std::string> constants_;
  std::vector<Pred> fact_preds_;
  std::vector<Pred> rule_preds_;
};

}  // namespace prore::testing

#endif  // PRORE_TESTS_PROGRAM_GENERATOR_H_
