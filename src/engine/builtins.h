#ifndef PRORE_ENGINE_BUILTINS_H_
#define PRORE_ENGINE_BUILTINS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "term/store.h"

namespace prore::engine {

class Machine;

/// A deterministic built-in predicate. Sets *success; returns non-OK only
/// for genuine errors (instantiation/type errors), which abort the query.
/// Nondeterministic built-ins (between/3, member/2, ...) are provided as
/// pure-Prolog library predicates instead — see LibrarySource().
using BuiltinFn = prore::Status (*)(Machine* machine, term::TermRef goal,
                                    bool* success);

/// Returns the built-in implementation for name/arity, or nullptr.
/// Control constructs (',', ';', '->', '!', '\\+', call) are handled by the
/// Machine itself and are not in this registry.
BuiltinFn LookupBuiltin(std::string_view name, uint32_t arity);

}  // namespace prore::engine

#endif  // PRORE_ENGINE_BUILTINS_H_
