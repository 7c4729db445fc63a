#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/content_hash.h"
#include "common/json.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/restrictions.h"
#include "lint/validate.h"
#include "reader/parser.h"
#include "reader/writer.h"

namespace prore::core {

using term::PredId;

const char* LadderLevelName(LadderLevel level) {
  switch (level) {
    case LadderLevel::kFull:
      return "full";
    case LadderLevel::kNoUnfold:
      return "no-unfold";
    case LadderLevel::kClauseOrderOnly:
      return "clause-order-only";
    case LadderLevel::kIdentity:
      return "identity";
  }
  return "unknown";
}

namespace {

/// The summary of predicates emitted verbatim: calls keep the original
/// names, and callers price the original clauses.
CalleeSummary IdentitySummary(const term::TermStore& store,
                              const std::vector<PredId>& preds) {
  CalleeSummary out;
  for (const PredId& p : preds) {
    out.versions.push_back(lint::VersionInfo{
        p, analysis::Mode(p.arity, analysis::ModeItem::kAny),
        store.symbols().Name(p.name)});
  }
  return out;
}

/// Cache entries carry each PredId with its symbol's name (ids are per
/// store), to be re-interned on replay.
template <typename T>
GroupCacheEntry::Named<T> WithNames(const term::TermStore& store,
                                    const std::vector<T>& items) {
  GroupCacheEntry::Named<T> out;
  for (const T& item : items) {
    out.emplace_back(store.symbols().Name(item.pred.name), item);
  }
  return out;
}

template <typename T>
std::vector<T> Reinterned(term::TermStore* store,
                          const GroupCacheEntry::Named<T>& items) {
  std::vector<T> out;
  for (const auto& [name, item] : items) {
    out.push_back(item);
    out.back().pred.name = store->symbols().Intern(name);
  }
  return out;
}

/// The whole-program facts that flow caller -> callee, per predicate:
/// cut-freezing and the call patterns mode inference and absint explored
/// (with absint's determinism there). A group's output depends on them
/// for its members and cone, so they key its cache entry.
analysis::CallerFacts CallerFacts(const std::vector<PredId>& preds,
                                  const analysis::PredSet& frozen,
                                  const CallPatterns& patterns) {
  const analysis::ModeAnalysis& modes = patterns.modes;
  const analysis::absint::AbsintResult* absint = patterns.absint.get();
  analysis::CallerFacts out;
  for (const PredId& p : preds) {
    std::string& f = out[p];
    if (frozen.count(p) > 0) f += "frozen;";
    if (auto it = modes.observed_inputs.find(p);
        it != modes.observed_inputs.end()) {
      for (const analysis::Mode& m : it->second) f += analysis::ModeString(m);
    }
    for (const analysis::ModeTable* table :
         {&modes.table, &modes.legal_table}) {
      f += ";";
      if (!table->Has(p)) continue;
      for (const analysis::ModePair& pair : table->PairsFor(p)) {
        f += analysis::ModeString(pair.input) +
             analysis::ModeString(pair.output);
      }
    }
  }
  if (absint != nullptr) {
    for (const auto& [key, call] : absint->groundness.keys) {
      out[call.pred] += ";" + key;
    }
    for (const auto& [key, call] : absint->determinism.keys) {
      out[call.pred] += prore::StrFormat(
          ";%s=%d", key.c_str(),
          static_cast<int>(absint->determinism.by_key.at(key)));
    }
  }
  return out;
}

}  // namespace

bool PipelineReport::degraded() const {
  if (unfold_disabled || factor_disabled || absint_disabled ||
      !global_trigger.empty()) {
    return true;
  }
  return quarantined() > 0;
}

size_t PipelineReport::quarantined() const {
  size_t n = 0;
  for (const PredOutcome& p : preds) {
    if (p.level != LadderLevel::kFull) ++n;
  }
  return n;
}

std::string PipelineReport::ToText() const {
  std::string out = prore::StrFormat(
      "pipeline: %d run%s, %zu of %zu predicate%s quarantined\n", runs,
      runs == 1 ? "" : "s", quarantined(), preds.size(),
      preds.size() == 1 ? "" : "s");
  if (!global_trigger.empty()) {
    out += "  GLOBAL fallback to identity: " + global_trigger + "\n";
  }
  if (unfold_disabled) {
    out += "  unfold stage disabled: " + unfold_trigger + "\n";
  }
  if (factor_disabled) {
    out += "  factor stage disabled: " + factor_trigger + "\n";
  }
  if (absint_disabled) {
    out += "  absint stage disabled: " + absint_trigger + "\n";
  }
  for (const PredOutcome& p : preds) {
    if (p.level == LadderLevel::kFull) continue;
    out += prore::StrFormat("  %s: %s after %d attempt%s", p.name.c_str(),
                            LadderLevelName(p.level), p.attempts,
                            p.attempts == 1 ? "" : "s");
    if (!p.fault_class.empty()) {
      out += prore::StrFormat(" (%s fault, %d retr%s)",
                              p.fault_class.c_str(), p.retries,
                              p.retries == 1 ? "y" : "ies");
    }
    out += "\n";
    for (const std::string& t : p.triggers) {
      out += "    - " + t + "\n";
    }
  }
  return out;
}

std::string PipelineReport::ToJson() const {
  std::string out = prore::StrFormat(
      "{\"runs\":%d,\"degraded\":%s,\"quarantined\":%zu", runs,
      degraded() ? "true" : "false", quarantined());
  out += ",\"global_trigger\":";
  prore::AppendJsonEscaped(&out, global_trigger);
  out += prore::StrFormat(",\"unfold_disabled\":%s",
                          unfold_disabled ? "true" : "false");
  out += ",\"unfold_trigger\":";
  prore::AppendJsonEscaped(&out, unfold_trigger);
  out += prore::StrFormat(",\"factor_disabled\":%s",
                          factor_disabled ? "true" : "false");
  out += ",\"factor_trigger\":";
  prore::AppendJsonEscaped(&out, factor_trigger);
  out += prore::StrFormat(",\"absint_disabled\":%s",
                          absint_disabled ? "true" : "false");
  out += ",\"absint_trigger\":";
  prore::AppendJsonEscaped(&out, absint_trigger);
  out += ",\"preds\":[";
  for (size_t i = 0; i < preds.size(); ++i) {
    const PredOutcome& p = preds[i];
    if (i) out += ",";
    out += "{\"pred\":";
    prore::AppendJsonEscaped(&out, p.name);
    out += ",\"level\":";
    prore::AppendJsonEscaped(&out, LadderLevelName(p.level));
    out += prore::StrFormat(
        ",\"attempts\":%d,\"retries\":%d,\"fault_class\":", p.attempts,
        p.retries);
    prore::AppendJsonEscaped(&out, p.fault_class);
    out += prore::StrFormat(
        ",\"clauses_changed\":%s,\"goals_changed\":%s",
        p.clauses_changed ? "true" : "false",
        p.goals_changed ? "true" : "false");
    out += ",\"triggers\":[";
    for (size_t j = 0; j < p.triggers.size(); ++j) {
      if (j) out += ",";
      prore::AppendJsonEscaped(&out, p.triggers[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

bool GuardedPipeline::TryAdoptCachedGroup(
    const GroupCacheEntry& entry, const std::vector<PredId>& members,
    const reader::Program& original,
    const std::vector<const CalleeSummary*>& callees,
    reader::Program* out_frag) {
  auto frag = reader::ParseProgramText(store_, entry.program_text);
  if (!frag.ok()) return false;

  // Self-verification on every hit: hold the cached output to the same
  // structural standard the reorderer used when producing it. The original
  // side is just the owned members' clauses (callee groups are emitted by
  // their own runs; their published versions map renamed calls back). Mode/
  // oracle checks need the producing run's analyses and are skipped; PL101
  // (clause preservation), PL102 (dispatcher shape) and PL103 (coverage)
  // catch any torn, truncated, or cross-wired entry.
  reader::Program orig_sub;
  for (const PredId& p : members) {
    for (const reader::Clause& c : original.ClausesOf(p)) {
      orig_sub.AddClause(*store_, c);
    }
  }
  lint::ReorderCheckInput check;
  check.original = &orig_sub;
  check.transformed = &*frag;
  for (const PredModeReport& r : Reinterned(store_, entry.reports)) {
    check.versions.push_back(
        lint::VersionInfo{r.pred, r.mode, r.version_name});
  }
  for (const CalleeSummary* callee : callees) {
    check.versions.insert(check.versions.end(), callee->versions.begin(),
                          callee->versions.end());
  }
  std::vector<lint::Diagnostic> findings;
  try {
    findings = lint::ValidateReorder(store_, check);
  } catch (const std::exception&) {
    return false;
  }
  for (const lint::Diagnostic& d : findings) {
    if (d.severity == lint::Severity::kError) return false;
  }
  *out_frag = std::move(*frag);
  return true;
}

prore::Result<PipelineResult> GuardedPipeline::Run(
    const reader::Program& original) {
  // Both paths emit the same program; one Reorderer over everything is
  // simply the fastest when there are no workers to share groups between
  // and no cache to replay them from.
  return options_.jobs <= 1 && options_.cache == nullptr
             ? RunWhole(original, nullptr)
             : RunSharded(original);
}

prore::Result<PipelineResult> GuardedPipeline::RunWhole(
    const reader::Program& original, const GroupContext* group) {
  // The ladder covers what this run emits: with a group, its members.
  const std::vector<PredId> preds =
      group != nullptr ? *group->members : original.pred_order();

  std::unordered_map<PredId, LadderLevel, term::PredIdHash> levels;
  std::unordered_map<PredId, int, term::PredIdHash> attempts;
  std::unordered_map<PredId, std::vector<std::string>, term::PredIdHash>
      triggers;
  std::unordered_map<PredId, int, term::PredIdHash> retries_used;
  std::unordered_map<PredId, prore::FaultClass, term::PredIdHash>
      fault_classes;
  for (const PredId& p : preds) {
    levels[p] = LadderLevel::kFull;
    attempts[p] = 1;
  }

  bool unfold_enabled = options_.unfold;
  bool factor_enabled = options_.factor;
  bool absint_enabled = options_.reorder.absint;
  PipelineReport report;

  // One rung per predicate per run, plus stage disables and one transient
  // retry per predicate, bounds the loop; the cap is slack on top of
  // that, never the expected exit path.
  const size_t max_runs =
      options_.max_runs != 0 ? options_.max_runs : 4 * preds.size() + 8;

  // Demotes one rung; false if already at the bottom.
  auto demote = [&](const PredId& pred, const std::string& why) -> bool {
    LadderLevel level = levels[pred];
    if (level == LadderLevel::kIdentity) return false;
    LadderLevel next;
    switch (level) {
      case LadderLevel::kFull:
        // Without an unfold/factor stage the kNoUnfold rung is a no-op
        // retry of kFull; skip straight to clause-order-only.
        next = (unfold_enabled || factor_enabled)
                   ? LadderLevel::kNoUnfold
                   : LadderLevel::kClauseOrderOnly;
        break;
      case LadderLevel::kNoUnfold:
        next = LadderLevel::kClauseOrderOnly;
        break;
      default:
        next = LadderLevel::kIdentity;
        break;
    }
    levels[pred] = next;
    ++attempts[pred];
    triggers[pred].push_back(why);
    return true;
  };

  auto fill_pred_outcomes =
      [&](const std::vector<PredModeReport>* final_reports) {
        report.preds.clear();
        for (const PredId& p : preds) {
          PredOutcome o;
          o.pred = p;
          o.name = reader::PredName(*store_, p);
          o.level = levels[p];
          o.attempts = attempts[p];
          o.triggers = triggers[p];
          auto rit = retries_used.find(p);
          if (rit != retries_used.end()) o.retries = rit->second;
          auto fit = fault_classes.find(p);
          if (fit != fault_classes.end() &&
              fit->second != prore::FaultClass::kNone) {
            o.fault_class = prore::FaultClassName(fit->second);
          }
          if (final_reports != nullptr) {
            for (const PredModeReport& r : *final_reports) {
              if (r.pred == p) {
                o.clauses_changed = o.clauses_changed || r.clauses_changed;
                o.goals_changed = o.goals_changed || r.goals_changed;
              }
            }
          }
          report.preds.push_back(std::move(o));
        }
      };

  auto identity_fallback = [&](const std::string& why)
      -> prore::Result<PipelineResult> {
    report.global_trigger = why;
    for (const PredId& p : preds) levels[p] = LadderLevel::kIdentity;
    fill_pred_outcomes(nullptr);
    PipelineResult result;
    for (const PredId& p : preds) {
      for (const reader::Clause& clause : original.ClausesOf(p)) {
        result.program.AddClause(*store_, clause);
      }
    }
    for (term::TermRef d : original.directives()) {
      result.program.AddDirective(d);
    }
    result.report = std::move(report);
    result.summary = IdentitySummary(*store_, preds);
    return result;
  };

  for (size_t run = 1; run <= max_runs; ++run) {
    report.runs = static_cast<int>(run);

    // A cancelled or past-deadline context stops starting new attempts;
    // what has been decided so far is discarded in favor of the always-
    // correct identity program, with the reason on record.
    if (prore::Status ctx = options_.exec.Check(); !ctx.ok()) {
      return identity_fallback(ctx.ToString());
    }

    analysis::PredSet no_unfold;
    analysis::PredSet clause_only;
    analysis::PredSet identity;
    for (const auto& [pred, level] : levels) {
      if (level >= LadderLevel::kNoUnfold) no_unfold.insert(pred);
      if (level == LadderLevel::kClauseOrderOnly) clause_only.insert(pred);
      if (level == LadderLevel::kIdentity) identity.insert(pred);
    }

    // ---- Stage 1: unfold / factor pre-passes -------------------------
    // A failure here is rarely attributable to one predicate, so the
    // fallback is coarser: disable the whole stage and re-run.
    const reader::Program* working = &original;
    reader::Program unfolded_storage, factored_storage;
    if (unfold_enabled) {
      UnfoldOptions uo = options_.unfold_options;
      uo.skip = no_unfold;
      prore::Status st;
      try {
        auto r = UnfoldProgram(store_, *working, uo);
        if (r.ok()) {
          unfolded_storage = std::move(r).value();
          working = &unfolded_storage;
        } else {
          st = r.status();
        }
      } catch (const std::exception& e) {
        st = prore::Status::Internal(
            prore::StrFormat("uncaught exception in unfold: %s", e.what()));
      }
      if (!st.ok()) {
        unfold_enabled = false;
        report.unfold_disabled = true;
        report.unfold_trigger = st.ToString();
        continue;
      }
    }
    if (factor_enabled) {
      prore::Status st;
      try {
        auto r = FactorDisjunctions(store_, *working, nullptr, &no_unfold);
        if (r.ok()) {
          factored_storage = std::move(r).value();
          working = &factored_storage;
        } else {
          st = r.status();
        }
      } catch (const std::exception& e) {
        st = prore::Status::Internal(
            prore::StrFormat("uncaught exception in factor: %s", e.what()));
      }
      if (!st.ok()) {
        factor_enabled = false;
        report.factor_disabled = true;
        report.factor_trigger = st.ToString();
        continue;
      }
    }

    // ---- Stage 2: the reorderer under its fault boundary -------------
    ReorderOptions ro = options_.reorder;
    ro.clause_order_only = clause_only;
    ro.identity_preds = identity;
    ro.cost_watchdog = options_.cost_watchdog;
    ro.inference.watchdog = options_.inference_watchdog;
    ro.absint = absint_enabled;
    ro.absint_watchdog = options_.absint_watchdog;
    ro.exec = options_.exec;
    if (options_.fault != nullptr) ro.fault = options_.fault;
    PredId blamed{};
    bool have_blame = false;
    auto user_cb = options_.reorder.on_pred_error;
    ro.on_pred_error = [&](const PredId& p, const prore::Status& st) {
      blamed = p;
      have_blame = true;
      if (user_cb) user_cb(p, st);
    };

    prore::Result<ReorderResult> rr = ReorderResult{};
    try {
      rr = Reorderer(store_, ro).Run(*working, group);
    } catch (const std::exception& e) {
      rr = prore::Status::Internal(
          prore::StrFormat("uncaught exception in reorderer: %s", e.what()));
    }

    if (!rr.ok()) {
      // An absint watchdog trip is a stage failure, not a predicate's
      // fault: drop the stage (baseline estimates) and retry instead of
      // descending the ladder or falling to identity.
      if (absint_enabled &&
          rr.status().code() == prore::StatusCode::kResourceExhausted &&
          rr.status().error_term() == "resource_error(watchdog(absint))") {
        absint_enabled = false;
        report.absint_disabled = true;
        report.absint_trigger = rr.status().ToString();
        continue;
      }
      const prore::FaultClass fc =
          prore::ClassifyFaultStatus(rr.status());
      // Cancellation and an expired global deadline are not predicate
      // faults — retrying or demoting cannot outrun them. Land on the
      // identity program immediately.
      if (fc == prore::FaultClass::kCancelled ||
          rr.status().error_term() == "resource_error(deadline_exceeded)") {
        return identity_fallback(rr.status().ToString());
      }
      if (have_blame && levels.count(blamed) > 0) {
        fault_classes[blamed] = fc;
        // Transient faults (watchdog trips, OOM) get one retry with
        // backoff at the same ladder rung before demotion: the failure
        // may have been scheduling noise or a contended sibling shard.
        if (fc == prore::FaultClass::kTransient && options_.retry.enabled() &&
            retries_used[blamed] < options_.retry.max_retries() &&
            levels[blamed] != LadderLevel::kIdentity) {
          ++retries_used[blamed];
          ++attempts[blamed];
          triggers[blamed].push_back("retry (transient): " +
                                     rr.status().ToString());
          if (!prore::BackoffSleep(options_.retry.ToBackoff(),
                                   retries_used[blamed], options_.exec)
                   .ok()) {
            return identity_fallback(options_.exec.Check().ToString());
          }
          continue;
        }
        if (demote(blamed, rr.status().ToString())) continue;
      }
      // Unattributable (setup/analysis failure, e.g. a mode-inference
      // watchdog trip) or an identity build failed (which must not
      // happen): the only safe landing is the identity program.
      return identity_fallback(rr.status().ToString());
    }

    // ---- Stage 3: validator diagnostics as quarantine triggers -------
    // Map version names back to original predicates so a finding against
    // aunt_iu/2 demotes aunt/2.
    std::unordered_map<std::string, PredId> owner;
    for (const PredModeReport& r : rr->reports) {
      owner.emplace(
          prore::StrFormat("%s/%u", r.version_name.c_str(), r.pred.arity),
          r.pred);
      owner.emplace(reader::PredName(*store_, r.pred), r.pred);
    }
    bool demoted_any = false;
    for (const lint::Diagnostic& d : rr->diagnostics) {
      if (d.severity != lint::Severity::kError) continue;
      auto it = owner.find(d.pred);
      std::string why = d.code + ": " + d.message;
      // Validator findings reproduce on identical input: deterministic,
      // never retried.
      if (it != owner.end()) {
        fault_classes[it->second] = prore::FaultClass::kDeterministic;
      }
      if (it == owner.end() || levels.count(it->second) == 0 ||
          !demote(it->second, why)) {
        // No predicate to blame (or it is already at identity, which
        // self-validates — a contradiction): identity for everything.
        return identity_fallback(why);
      }
      demoted_any = true;
    }
    if (demoted_any) continue;

    // ---- Success ------------------------------------------------------
    fill_pred_outcomes(&rr->reports);
    PipelineResult result;
    result.program = std::move(rr->program);
    result.reports = std::move(rr->reports);
    result.diagnostics = std::move(rr->diagnostics);
    result.absint_report = std::move(rr->absint_report);
    result.report = std::move(report);
    result.summary = std::move(rr->summary);
    return result;
  }

  return identity_fallback(
      prore::StrFormat("attempt budget exhausted after %zu runs",
                       max_runs));
}

prore::Result<PipelineResult> GuardedPipeline::RunSharded(
    const reader::Program& original) {
  // Condensation and the analyses whose facts flow caller -> callee
  // (cut-freezing, mode inference, absint) run at most once, on the
  // calling thread, over the whole program. If any fails, the whole-
  // program path's fault machinery produces the right fallback. Unfold and
  // factor rewrite clauses across group boundaries, so runs with them stay
  // whole.
  if (options_.unfold || options_.factor) return RunWhole(original, nullptr);
  auto graph = analysis::CallGraph::Build(*store_, original);
  if (!graph.ok()) return RunWhole(original, nullptr);
  auto frozen = FrozenDescendants(*store_, original, *graph);
  if (!frozen.ok()) return RunWhole(original, nullptr);
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(*graph);
  if (dg.size() <= 1) return RunWhole(original, nullptr);
  const std::vector<PredId>& preds = original.pred_order();
  const analysis::PredSet all_preds(preds.begin(), preds.end());

  // Mode inference and absint run when some group has to be built, or to
  // key a program the cache has not seen.
  std::optional<CallPatterns> patterns;
  auto analyze = [&]() -> bool {
    auto decls = analysis::ParseDeclarations(*store_, original);
    if (!decls.ok()) return false;
    ReorderOptions ro = options_.reorder;
    ro.inference.watchdog = options_.inference_watchdog;
    ro.absint_watchdog = options_.absint_watchdog;
    ro.exec = options_.exec;
    auto p = AnalyzeCallPatterns(*store_, original, *graph, *decls, ro);
    if (!p.ok()) return false;
    patterns = std::move(*p);
    return true;
  };

  struct GroupRun {
    term::TermStore store;  ///< private arena; symbols adopted from main
    /// Non-ok until the task actually runs: a task dropped by
    /// cancellation (or lost to a worker exception) must land its group
    /// on the identity merge path, not silently contribute an empty
    /// program.
    prore::Result<PipelineResult> result =
        prore::Status::Cancelled("group task never ran");
    /// What callers see: identity until the group publishes.
    CalleeSummary summary;
    GroupContext context;
    /// Replayed from the cache: `result` holds the entry, its clauses
    /// parsed into the main store.
    bool hit = false;
    /// Recomputing it gives the same result, and so does recomputing
    /// every callee group.
    bool reproducible = false;
    std::vector<size_t> dependents;  ///< groups waiting on this one
    std::atomic<size_t> waiting{0};  ///< unfinished callee groups
  };
  std::vector<GroupRun> runs(dg.size());
  for (size_t gi = 0; gi < dg.size(); ++gi) {
    runs[gi].summary = IdentitySummary(*store_, dg.groups[gi]);
  }

  // ---- Cache lookup --------------------------------------------------
  // Runs before any worker starts: adopting a hit parses its rendered
  // clauses into the main store, which is single-threaded. A hit that
  // fails the PL100-PL103 re-validation is invalidated and recomputed —
  // corruption costs a recompute, never correctness.
  std::vector<uint64_t> keys;
  size_t cache_hits = 0, cache_misses = 0, cache_rejected = 0;
  if (options_.cache != nullptr) {
    // A group's key folds in its members' caller facts, which the
    // analyses produce; they are a function of the whole program, so a
    // program seen before reuses its keys.
    const analysis::ContentHashes hashes = analysis::ComputeContentHashes(
        *store_, original, dg, options_.cache_salt);
    uint64_t program_key = 0;
    for (uint64_t h : hashes.group_hash) {
      program_key = analysis::HashMix(program_key, h);
    }
    if (auto known = options_.cache->LookupGroupKeys(program_key)) {
      keys = *known;
    } else {
      if (!analyze()) return RunWhole(original, nullptr);
      keys = analysis::FoldCallerFacts(
          *store_, dg, hashes,
          CallerFacts(preds, *frozen, *patterns));
      options_.cache->InsertGroupKeys(program_key, keys);
    }
    for (size_t gi = 0; gi < dg.size(); ++gi) {
      GroupRun& gr = runs[gi];
      auto entry = options_.cache->Lookup(keys[gi]);
      PipelineResult replay;
      std::vector<const CalleeSummary*> callees;  // the direct ones
      for (size_t d : dg.deps[gi]) callees.push_back(&runs[d].summary);
      if (entry != nullptr &&
          !TryAdoptCachedGroup(*entry, dg.groups[gi], original, callees,
                               &replay.program)) {
        options_.cache->Invalidate(keys[gi]);
        ++cache_rejected;
        entry = nullptr;
      }
      // Replay only over replayed callees: a recomputed callee group may
      // degrade this time, and the entry calls the versions it published.
      for (size_t d : dg.deps[gi]) {
        if (!runs[d].hit) entry = nullptr;
      }
      if (entry == nullptr) {
        ++cache_misses;
        continue;
      }
      ++cache_hits;
      gr.hit = true;
      replay.reports = Reinterned(store_, entry->reports);
      replay.diagnostics = entry->diagnostics;
      replay.report.preds = Reinterned(store_, entry->outcomes);
      replay.report.runs = entry->runs;
      gr.summary.versions = Reinterned(store_, entry->versions);
      gr.summary.stats = entry->stats;
      gr.result = std::move(replay);
    }
  }
  if (cache_hits < dg.size() && !patterns.has_value() && !analyze()) {
    return RunWhole(original, nullptr);
  }
  for (size_t gi = 0; gi < dg.size(); ++gi) {
    if (runs[gi].hit) continue;
    for (size_t d : dg.deps[gi]) {
      if (runs[d].hit) continue;
      runs[d].dependents.push_back(gi);
      ++runs[gi].waiting;
    }
  }

  std::string out_of_band_failure;

  // Sibling-shard interruption: every group task runs under a child
  // cancellation scope of the pipeline's own context, so (a) a caller's
  // cancel propagates into every in-flight group's analyses, and (b)
  // stop_on_degrade can cancel the siblings from inside a task the
  // moment one group degrades (prore --strict: the exit code is already
  // decided, finishing the other shards buys nothing).
  prore::CancellationSource group_cancel(options_.exec.token);
  const prore::ExecContext group_exec =
      options_.exec.WithToken(group_cancel.token());

  {
    // jobs <= 1 is the inline pool: Submit runs the task at once, and
    // submitting in group order runs callees first (deps[i] < i). With
    // workers, a group is submitted by the task that finishes its last
    // callee group. Either way no group starts before its cone has
    // published. The pool shares the group cancellation scope: once it
    // fires, unstarted groups are dropped (they merge as identity via the
    // never-ran status).
    prore::ThreadPool pool(options_.jobs <= 1 ? 0 : options_.jobs,
                           group_cancel.token());
    const bool threaded = pool.size() > 0;
    std::function<void(size_t)> submit;

    // One task per group. Each task owns a private TermStore whose symbol
    // table is a copy of the main one (so PredIds carry over), copies its
    // dependency cone in for the analyses, and runs the guarded pipeline
    // over that subprogram against the cone's published summaries.
    // Groups share nothing mutable: watchdog deadlines, fault boundaries
    // and the degradation ladder all live inside the task.
    auto run_group = [&](size_t gi) {
      GroupRun& gr = runs[gi];
      if (group_cancel.Cancelled()) return;  // keep the never-ran status
      try {
        gr.store.AdoptSymbols(*store_);
        gr.context =
            GroupContext{&dg.groups[gi], &*frozen, &all_preds, &*patterns, {}};
        analysis::PredSet in_sub(dg.groups[gi].begin(), dg.groups[gi].end());
        for (size_t d : dg.TransitiveDeps(gi)) {
          in_sub.insert(dg.groups[d].begin(), dg.groups[d].end());
          gr.context.callees.push_back(&runs[d].summary);
        }
        reader::Program sub;
        for (const PredId& p : preds) {
          if (in_sub.count(p) == 0) continue;
          for (const reader::Clause& c : original.ClausesOf(p)) {
            std::unordered_map<uint32_t, term::TermRef> vars;
            reader::Clause copy;
            copy.head = gr.store.CopyFrom(*store_, c.head, &vars);
            copy.body = gr.store.CopyFrom(*store_, c.body, &vars);
            sub.AddClause(gr.store, copy);
          }
        }
        // Declarations (legal modes etc.) may concern any predicate; copy
        // them all and let each group pick out what it needs.
        for (term::TermRef d : original.directives()) {
          sub.AddDirective(gr.store.CopyFrom(*store_, d));
        }

        PipelineOptions po = options_;
        po.exec = group_exec;
        gr.result = GuardedPipeline(&gr.store, std::move(po))
                        .RunWhole(sub, &gr.context);
        if (gr.result.ok()) gr.summary = std::move(gr.result->summary);
        if (options_.stop_on_degrade && gr.result.ok() &&
            gr.result->report.degraded()) {
          group_cancel.RequestCancel(prore::StrFormat(
              "sibling group %zu degraded under stop_on_degrade", gi));
        }
      } catch (const std::exception& e) {
        gr.result = prore::Status::Internal(prore::StrFormat(
            "uncaught exception in pipeline group: %s", e.what()));
      }
      if (!threaded) return;
      for (size_t d : gr.dependents) {
        if (runs[d].waiting.fetch_sub(1) == 1) submit(d);
      }
    };
    submit = [&](size_t gi) {
      pool.Submit([&run_group, gi] { run_group(gi); });
    };

    std::vector<size_t> ready;
    for (size_t gi = 0; gi < dg.size(); ++gi) {
      if (!runs[gi].hit && (!threaded || runs[gi].waiting == 0)) {
        ready.push_back(gi);
      }
    }
    for (size_t gi : ready) submit(gi);
    try {
      pool.Wait();
    } catch (const std::exception& e) {
      // A non-std exception escaped run_group's own boundary. The groups
      // it killed keep their never-ran status and merge as identity;
      // record the first cause globally.
      out_of_band_failure = prore::StrFormat(
          "pipeline worker exception: %s", e.what());
    } catch (...) {
      out_of_band_failure = "pipeline worker exception (non-std)";
    }
  }

  // ---- Deterministic merge ---------------------------------------------
  // Reports, diagnostics and cache entries are gathered in group order —
  // the bottom-up order the whole-program reorderer builds in. A group's
  // output lists each member's versions just before the clauses under
  // the member's own name; the program is then emitted member by member
  // in source order, exactly as one whole-program run assembles it.
  PipelineResult out;
  PipelineReport& rep = out.report;
  std::unordered_map<PredId, PredOutcome, term::PredIdHash> outcomes;
  // Owned predicate -> its group, and its versions followed by itself.
  std::unordered_map<PredId, std::pair<size_t, std::vector<PredId>>,
                     term::PredIdHash>
      chunks;
  std::vector<std::unique_ptr<GroupCacheEntry>> entries(dg.size());

  for (size_t gi = 0; gi < dg.size(); ++gi) {
    GroupRun& gr = runs[gi];
    if (!gr.result.ok()) {
      // The inner pipeline only errors on malformed input, which a
      // well-formed subprogram rules out — but if it happens, land the
      // group on identity so the merged program stays complete.
      std::string why = gr.result.status().ToString();
      for (const PredId& p : dg.groups[gi]) {
        PredOutcome o;
        o.pred = p;
        o.name = reader::PredName(*store_, p);
        o.level = LadderLevel::kIdentity;
        o.attempts = 1;
        o.triggers.push_back(why);
        outcomes.emplace(p, std::move(o));
      }
      if (rep.global_trigger.empty()) {
        rep.global_trigger = prore::StrFormat("group %zu: %s", gi,
                                              why.c_str());
      }
      continue;  // no chunks: the members' original clauses are emitted
    }
    PipelineResult& pr = *gr.result;
    // Groups run no unfold, factor or absint stage of their own, so those
    // stage flags stay as the whole-program analyses left them.
    rep.runs = std::max(rep.runs, pr.report.runs);
    if (!pr.report.global_trigger.empty() && rep.global_trigger.empty()) {
      rep.global_trigger = prore::StrFormat(
          "group %zu: %s", gi, pr.report.global_trigger.c_str());
    }
    out.reports.insert(out.reports.end(), pr.reports.begin(),
                       pr.reports.end());
    out.diagnostics.insert(out.diagnostics.end(), pr.diagnostics.begin(),
                           pr.diagnostics.end());
    for (const PredOutcome& o : pr.report.preds) outcomes.emplace(o.pred, o);

    // Only results that reproduce are worth caching: no global fallback
    // (cancel, deadline) and no transient fault (watchdog trip, OOM) —
    // caching one would pin it. A deterministic demotion, such as a
    // validator finding, recurs on every recompute and is cached.
    gr.reproducible =
        pr.report.global_trigger.empty() &&
        std::none_of(pr.report.preds.begin(), pr.report.preds.end(),
                     [](const PredOutcome& o) {
                       return o.retries > 0 || o.fault_class == "transient";
                     });
    for (size_t d : dg.deps[gi]) {
      gr.reproducible = gr.reproducible && runs[d].reproducible;
    }
    if (options_.cache != nullptr && gr.reproducible && !gr.hit) {
      auto entry = std::make_unique<GroupCacheEntry>();
      entry->reports = WithNames(*store_, pr.reports);
      entry->outcomes = WithNames(*store_, pr.report.preds);
      entry->versions = WithNames(*store_, gr.summary.versions);
      entry->stats = gr.summary.stats;
      entry->diagnostics = pr.diagnostics;
      entry->runs = pr.report.runs;
      entries[gi] = std::move(entry);
    }
    std::vector<PredId> chunk;
    for (const PredId& q : pr.program.pred_order()) {
      chunk.push_back(q);
      if (dg.group_of.count(q) > 0) {
        chunks[q] = {gi, std::exchange(chunk, {})};
      }
    }
  }

  for (const PredId& p : preds) {
    auto it = chunks.find(p);
    if (it == chunks.end()) {
      for (const reader::Clause& c : original.ClausesOf(p)) {
        out.program.AddClause(*store_, c);
      }
      continue;
    }
    const auto& [gi, chunk] = it->second;
    GroupRun& gr = runs[gi];
    GroupCacheEntry* entry = entries[gi].get();
    for (const PredId& q : chunk) {
      for (const reader::Clause& c : gr.result->program.ClausesOf(q)) {
        if (gr.hit) {  // parsed into the main store during adoption
          out.program.AddClause(*store_, c);
          continue;
        }
        std::unordered_map<uint32_t, term::TermRef> vars;
        reader::Clause copy;
        copy.head = store_->CopyFrom(gr.store, c.head, &vars);
        copy.body = store_->CopyFrom(gr.store, c.body, &vars);
        out.program.AddClause(*store_, copy);
        if (entry != nullptr) {
          // Rendered from the main-store copy the output itself holds, so
          // replaying the entry reproduces these bytes.
          entry->program_text += reader::WriteClause(*store_, copy);
          entry->program_text += '\n';
        }
      }
    }
  }
  for (size_t gi = 0; gi < dg.size(); ++gi) {
    if (entries[gi] != nullptr) {
      options_.cache->Insert(keys[gi], std::move(*entries[gi]));
    }
  }

  if (!out_of_band_failure.empty() && rep.global_trigger.empty()) {
    rep.global_trigger = out_of_band_failure;
  }
  if (patterns.has_value() && patterns->absint != nullptr) {
    out.absint_report = analysis::absint::DumpAbsint(*patterns->absint);
  }
  rep.cache_hits = cache_hits;
  rep.cache_misses = cache_misses;
  rep.cache_rejected = cache_rejected;
  for (term::TermRef d : original.directives()) out.program.AddDirective(d);
  for (const PredId& p : preds) {
    auto it = outcomes.find(p);
    if (it != outcomes.end()) {
      rep.preds.push_back(std::move(it->second));
    } else {
      PredOutcome o;  // defensive: a group somehow skipped this predicate
      o.pred = p;
      o.name = reader::PredName(*store_, p);
      rep.preds.push_back(std::move(o));
    }
  }
  return out;
}

}  // namespace prore::core
