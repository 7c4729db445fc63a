#include "analysis/absint/absint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/str_util.h"

namespace prore::analysis::absint {

using term::PredId;
using term::TermStore;

namespace {

void AddSeed(const TermStore& store, std::vector<CallKey>* seeds,
             std::vector<std::string>* seen, const PredId& id,
             const Mode& pattern) {
  std::string key = KeyName(store, id, pattern);
  if (std::find(seen->begin(), seen->end(), key) != seen->end()) return;
  seen->push_back(key);
  seeds->push_back(CallKey{id, pattern});
}

/// The analysis roots: every call pattern mode inference observed (when
/// available), plus the entry-point enumeration it would have used — the
/// same universe of patterns the reorderer's legality checks ask about.
std::vector<CallKey> CollectSeeds(const TermStore& store,
                                  const reader::Program& program,
                                  const CallGraph& graph,
                                  const Declarations& decls,
                                  const ModeAnalysis* modes) {
  std::vector<CallKey> seeds;
  std::vector<std::string> seen;
  if (modes != nullptr) {
    for (const auto& [id, inputs] : modes->observed_inputs) {
      if (!program.Has(id)) continue;
      for (const Mode& m : inputs) AddSeed(store, &seeds, &seen, id, m);
    }
  }
  const std::vector<PredId>& roots =
      decls.entries.empty() ? graph.EntryPoints() : decls.entries;
  for (const PredId& root : roots) {
    if (!program.Has(root)) continue;
    const auto& declared = decls.legal_modes.PairsFor(root);
    if (!declared.empty()) {
      for (const ModePair& pair : declared) {
        AddSeed(store, &seeds, &seen, root, pair.input);
      }
    } else if (root.arity <= kMaxEnumeratedArity) {
      uint32_t combos = 1u << root.arity;
      for (uint32_t bits = 0; bits < combos; ++bits) {
        Mode m(root.arity);
        for (uint32_t i = 0; i < root.arity; ++i) {
          m[i] = (bits >> i) & 1 ? ModeItem::kPlus : ModeItem::kMinus;
        }
        AddSeed(store, &seeds, &seen, root, m);
      }
    } else {
      AddSeed(store, &seeds, &seen, root, Mode(root.arity, ModeItem::kAny));
    }
  }
  return seeds;
}

}  // namespace

prore::Result<AbsintResult> RunAbsint(const TermStore& store,
                                      const reader::Program& program,
                                      const CallGraph& graph,
                                      const Declarations& decls,
                                      const ModeAnalysis* modes,
                                      const AbsintOptions& opts) {
  AbsintResult result;
  DependencyGroups groups = ComputeDependencyGroups(graph);
  std::vector<CallKey> seeds =
      CollectSeeds(store, program, graph, decls, modes);

  SolverOptions solver_opts;
  solver_opts.widen_after = opts.widen_after;
  solver_opts.max_updates_per_key = opts.max_updates_per_key;
  solver_opts.watchdog = opts.watchdog;
  solver_opts.exec = opts.exec;

  GroundnessDomain ground_domain(&store, &program);
  Solver<GroundnessDomain> ground_solver(&store, &graph, &groups,
                                         &ground_domain, solver_opts);
  PRORE_RETURN_IF_ERROR(ground_solver.Run(seeds));
  result.groundness.by_key = ground_solver.summaries();
  result.groundness.keys = ground_solver.keys();
  result.stats.groundness_keys = ground_solver.stats().keys;
  result.stats.groundness_transfers = ground_solver.stats().transfers;
  result.stats.widenings += ground_solver.stats().widenings;
  result.stats.saturations += ground_solver.stats().saturations;

  DeterminismDomain det_domain(&store, &program, &result.groundness);
  Solver<DeterminismDomain> det_solver(&store, &graph, &groups, &det_domain,
                                       solver_opts);
  PRORE_RETURN_IF_ERROR(det_solver.Run(seeds));
  result.determinism.by_key = det_solver.summaries();
  result.determinism.keys = det_solver.keys();
  result.stats.determinism_keys = det_solver.stats().keys;
  result.stats.determinism_transfers = det_solver.stats().transfers;
  result.stats.widenings += det_solver.stats().widenings;
  result.stats.saturations += det_solver.stats().saturations;

  for (const auto& [key, ck] : result.determinism.keys) {
    (void)key;
    if (!program.Has(ck.pred)) continue;
    if (result.determinism.witnesses.count(ck.pred) > 0) continue;
    result.determinism.witnesses.emplace(ck.pred,
                                         det_domain.WitnessesOf(ck.pred));
  }
  return result;
}

size_t TightenModes(const TermStore& store,
                    const GroundnessSummaries& groundness, ModeTable* table) {
  (void)store;
  size_t upgraded = 0;
  for (const auto& [key, value] : groundness.by_key) {
    if (!value.can_succeed) continue;
    const CallKey& ck = groundness.keys.at(key);
    upgraded += table->Tighten(ck.pred, ModePair{ck.pattern, value.success});
  }
  return upgraded;
}

std::string DumpAbsint(const AbsintResult& result) {
  std::string out = "absint groundness (success patterns):\n";
  for (const auto& [key, value] : result.groundness.by_key) {
    out += prore::StrFormat(
        "  %-28s %s\n", key.c_str(),
        value.can_succeed ? ModeString(value.success).c_str() : "fails");
  }
  out += "absint determinism:\n";
  for (const auto& [key, det] : result.determinism.by_key) {
    out += prore::StrFormat("  %-28s %s\n", key.c_str(), DetName(det));
  }
  out += prore::StrFormat(
      "absint stats: groundness %zu keys / %zu transfers, determinism "
      "%zu keys / %zu transfers, %zu widenings, %zu saturations\n",
      result.stats.groundness_keys, result.stats.groundness_transfers,
      result.stats.determinism_keys, result.stats.determinism_transfers,
      result.stats.widenings, result.stats.saturations);
  return out;
}

}  // namespace prore::analysis::absint
