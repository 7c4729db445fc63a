#ifndef PRORE_ANALYSIS_MODES_H_
#define PRORE_ANALYSIS_MODES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis {

/// Abstract instantiation of one argument position — the paper's
/// three-symbol mode system (§V-C): '+' instantiated, '-' uninstantiated,
/// '?' either / partly instantiated.
enum class ModeItem : uint8_t {
  kPlus,   ///< +  bound (at least the principal functor known)
  kMinus,  ///< -  a free variable
  kAny,    ///< ?  unknown or partly instantiated
};

char ModeItemChar(ModeItem m);

/// A mode tuple, one item per argument.
using Mode = std::vector<ModeItem>;

std::string ModeString(const Mode& mode);          // e.g. "(+,-,?)"
std::string ModeSuffix(const Mode& mode);          // e.g. "iu" / "iua"
prore::Result<Mode> ModeFromString(const std::string& s);  // "(+,-,?)"

/// The goals of a mode workload (the paper's Table II methodology): one
/// `pred(...)` per combination of `universe` constants over the '+'
/// positions — first position fastest — with `V<i>` at every other
/// position. Empty when a '+' position has no constant to take.
std::vector<std::string> ModeQueries(const std::string& pred, const Mode& mode,
                                     const std::vector<std::string>& universe);

/// A legal input mode paired with the output mode a successful call in
/// that input mode guarantees (§V-C: "input and output modes as pairs").
struct ModePair {
  Mode input;
  Mode output;
};

/// True if a call whose argument instantiations are `call_mode` satisfies
/// the demands of legal input mode `input`: every '+' position of `input`
/// must be '+' in the call. '-' and '?' demand nothing — legality is
/// upward-closed in instantiation (a more-instantiated call never loops
/// or errors where a less-instantiated one was legal).
bool SatisfiesInput(const Mode& call_mode, const Mode& input);

/// The instantiation after success: position i is '+' if it was '+' in the
/// call or the pair's output guarantees '+'; '-' only if both agree on '-';
/// otherwise '?'.
Mode ApplyOutput(const Mode& call_mode, const Mode& output);

/// Legal-mode table for the predicates of a program: declared via
/// `:- legal_mode(pred(+,-), pred(+,+)).` directives (input, output),
/// inferred by mode inference, or built in (for library predicates).
class ModeTable {
 public:
  /// Registers a legal (input, output) pair. Duplicate inputs merge by
  /// intersecting output guarantees.
  void Add(const term::PredId& id, const ModePair& pair);

  /// Strengthens the stored output for `pair.input` in place: positions
  /// where the stored guarantee is '?' take the pair's '+'/'-' value;
  /// existing '+'/'-' guarantees are kept. Adds the pair when the input is
  /// new. Returns how many positions got stronger — the upgrade path for
  /// analyses (absint groundness) that prove more than mode inference did.
  size_t Tighten(const term::PredId& id, const ModePair& pair);

  /// All pairs registered for `id` (empty if none — meaning "no information",
  /// not "no legal mode").
  const std::vector<ModePair>& PairsFor(const term::PredId& id) const;

  bool Has(const term::PredId& id) const { return pairs_.count(id) > 0; }

  /// True if `call_mode` satisfies some legal input mode of `id`.
  bool IsLegalCall(const term::PredId& id, const Mode& call_mode) const;

  /// The mode after a successful call: the pointwise meet ('+' only when
  /// guaranteed by every matching pair) over all matching pairs, applied
  /// to the call mode. nullopt if no pair matches.
  std::optional<Mode> OutputFor(const term::PredId& id,
                                const Mode& call_mode) const;

  size_t size() const { return pairs_.size(); }

 private:
  std::unordered_map<term::PredId, std::vector<ModePair>, term::PredIdHash>
      pairs_;
};

/// Demand/output table for built-in predicates: the modes in which each
/// built-in functions, per the paper §V-B ("most built-in predicates have
/// modes in which they cannot function"). Keyed by name/arity.
/// Example: is/2 demands (?,+) and returns (+,+); var/1 accepts (?)
/// returning (?).
class BuiltinModes {
 public:
  BuiltinModes();

  /// Legal pairs for a built-in; empty vector if the built-in is unknown
  /// (treated as demanding nothing).
  const std::vector<ModePair>& PairsFor(const std::string& name,
                                        uint32_t arity) const;

  bool IsLegalCall(const std::string& name, uint32_t arity,
                   const Mode& call_mode) const;
  std::optional<Mode> OutputFor(const std::string& name, uint32_t arity,
                                const Mode& call_mode) const;

 private:
  void Add(const std::string& name, uint32_t arity, const std::string& input,
           const std::string& output);

  struct Key {
    std::string name;
    uint32_t arity;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string>()(k.name) ^ (k.arity * 0x9e3779b9u);
    }
  };
  std::unordered_map<Key, std::vector<ModePair>, KeyHash> pairs_;
};

/// Parses the mode-related directives of a program:
///   :- legal_mode(p(+,-), p(+,+)).       input/output pair
///   :- mode(p(+,-)).                      DEC-10 style; output assumed (+,?)
///   :- entry(p/2).                        entry point hint
///   :- recursive(p/2).                    recursion hint
/// Unknown directives are ignored (they may belong to other tools).
struct Declarations {
  ModeTable legal_modes;
  std::vector<term::PredId> entries;
  std::vector<term::PredId> recursive;
  /// :- prob(p/2, 0.35).  unification/success probability hints
  std::unordered_map<term::PredId, double, term::PredIdHash> success_probs;
  /// :- cost(p/2, 12.5).  cost hints (in calls)
  std::unordered_map<term::PredId, double, term::PredIdHash> costs;
};

prore::Result<Declarations> ParseDeclarations(const term::TermStore& store,
                                              const reader::Program& program);

/// The abstract instantiation of one argument term right now:
/// '+' if ground, '-' if an unbound variable, '?' otherwise. ('+' means
/// *ground* throughout the analyses — the three-symbol system of §V-C/D;
/// the paper's partly-instantiated structures map to '?'.)
ModeItem ModeOfTerm(const term::TermStore& store, term::TermRef t);

/// Abstract state of one clause variable during mode propagation.
enum class VarState : uint8_t {
  kGround,   ///< definitely ground
  kFree,     ///< definitely a free variable
  kUnknown,  ///< anything
};

/// Abstract binding environment: clause-variable id -> state. Variables
/// not present are kFree (fresh body variables start free).
class AbstractEnv {
 public:
  VarState Get(uint32_t var_id) const;
  void Set(uint32_t var_id, VarState s);

  /// The mode of `t` under this environment.
  ModeItem ModeOf(const term::TermStore& store, term::TermRef t) const;

  /// The call mode of every argument of `goal`.
  Mode CallModeOf(const term::TermStore& store, term::TermRef goal) const;

  /// Applies an output mode to the arguments of `goal`: '+' grounds the
  /// argument's variables; '?' downgrades free ones to unknown; '-' leaves
  /// them untouched.
  void ApplyCallOutput(const term::TermStore& store, term::TermRef goal,
                       const Mode& output);

  /// Special-cases =/2: after X = T the two sides share instantiation.
  void ApplyUnification(const term::TermStore& store, term::TermRef lhs,
                        term::TermRef rhs);

  /// Join at a control-flow merge (disjunction / if-then-else): pointwise,
  /// ground⊔ground = ground, free⊔free = free, anything else unknown.
  static AbstractEnv Join(const AbstractEnv& a, const AbstractEnv& b);

  bool operator==(const AbstractEnv&) const = default;

 private:
  std::unordered_map<uint32_t, VarState> states_;
};

}  // namespace prore::analysis

#endif  // PRORE_ANALYSIS_MODES_H_
