#ifndef PRORE_ANALYSIS_CONTENT_HASH_H_
#define PRORE_ANALYSIS_CONTENT_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/callgraph.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis {

/// 64-bit content hashes over the SCC condensation, the key of the
/// incremental analysis/transform cache (core/analysis_cache.h): a
/// predicate's hash covers its clauses (canonically rendered, so it is
/// independent of TermRef numbering), and a dependency group's hash covers
/// its members' clause hashes plus the hashes of its callee groups.
/// Editing one predicate therefore changes exactly the hashes of its own
/// group and of every group that (transitively) calls into it — the dirty
/// cone — while the callee-side groups keep their hashes and stay
/// cacheable.
///
/// Two whole-program inputs are deliberately folded into every group hash,
/// trading incrementality for soundness:
///  - the directive list and the full defined-predicate name set: legal-
///    mode declarations change analysis results anywhere, and the set of
///    program names feeds version-name collision avoidance
///    (core::GroupContext::program_preds);
///  - per group, the caller facts of its members (and, through the
///    callee hashes, of its cone): cut-freezing and the analyzed call
///    patterns flow caller -> callee, so a caller edit can change a
///    callee group's output without touching its clauses.
struct ContentHashes {
  std::unordered_map<term::PredId, uint64_t, term::PredIdHash> pred_hash;
  /// Parallel to DependencyGroups::groups.
  std::vector<uint64_t> group_hash;
};

/// splitmix64-style mixing primitives, exposed for tests and for callers
/// that fold extra context (an options fingerprint) into a salt.
uint64_t HashMix(uint64_t seed, uint64_t value);
uint64_t HashBytes(uint64_t seed, std::string_view bytes);

/// Computes the per-predicate and per-group hashes for `program` under
/// `groups` (its SCC condensation). `salt` is folded into every hash —
/// callers use it to fingerprint the transform options, so cache entries
/// produced under different options never collide.
ContentHashes ComputeContentHashes(const term::TermStore& store,
                                   const reader::Program& program,
                                   const DependencyGroups& groups,
                                   uint64_t salt);

/// Per predicate, a rendering of the whole-program facts that flow
/// caller -> callee (core/pipeline.cc). Predicates absent have none.
using CallerFacts =
    std::unordered_map<term::PredId, std::string, term::PredIdHash>;

/// The cache key of every group: its hash with its members' caller facts
/// folded in, and its callee groups' keys, so a key covers the facts of
/// the group's whole cone.
std::vector<uint64_t> FoldCallerFacts(const term::TermStore& store,
                                      const DependencyGroups& groups,
                                      const ContentHashes& hashes,
                                      const CallerFacts& facts);

}  // namespace prore::analysis

#endif  // PRORE_ANALYSIS_CONTENT_HASH_H_
