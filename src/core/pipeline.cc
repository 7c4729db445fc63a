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

/// Runs `stage`, a Result-returning callable: a thrown failure comes back
/// as an error status too, so nothing escapes a fault boundary.
template <typename Stage>
auto Guarded(const char* what, const Stage& stage) -> decltype(stage()) {
  try {
    return stage();
  } catch (const std::exception& e) {
    return prore::Status::Internal(
        prore::StrFormat("uncaught exception in %s: %s", what, e.what()));
  }
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
  using prore::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("runs", JsonValue::Number(runs));
  out.Set("degraded", JsonValue::Bool(degraded()));
  out.Set("quarantined", JsonValue::Number(quarantined()));
  out.Set("global_trigger", JsonValue::String(global_trigger));
  out.Set("unfold_disabled", JsonValue::Bool(unfold_disabled));
  out.Set("unfold_trigger", JsonValue::String(unfold_trigger));
  out.Set("factor_disabled", JsonValue::Bool(factor_disabled));
  out.Set("factor_trigger", JsonValue::String(factor_trigger));
  out.Set("absint_disabled", JsonValue::Bool(absint_disabled));
  out.Set("absint_trigger", JsonValue::String(absint_trigger));
  JsonValue list = JsonValue::Array();
  for (const PredOutcome& p : preds) {
    JsonValue o = JsonValue::Object();
    o.Set("pred", JsonValue::String(p.name));
    o.Set("level", JsonValue::String(LadderLevelName(p.level)));
    o.Set("attempts", JsonValue::Number(p.attempts));
    o.Set("retries", JsonValue::Number(p.retries));
    o.Set("fault_class", JsonValue::String(p.fault_class));
    o.Set("clauses_changed", JsonValue::Bool(p.clauses_changed));
    o.Set("goals_changed", JsonValue::Bool(p.goals_changed));
    JsonValue triggers = JsonValue::Array();
    for (const std::string& t : p.triggers) {
      triggers.push_back(JsonValue::String(t));
    }
    o.Set("triggers", std::move(triggers));
    list.push_back(std::move(o));
  }
  out.Set("preds", std::move(list));
  return out.Dump();
}

bool GuardedPipeline::TryAdoptCachedGroup(
    const GroupCacheEntry& entry, const std::vector<PredId>& members,
    const reader::Program& working,
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
    for (const reader::Clause& c : working.ClausesOf(p)) {
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
  // Whole-program work runs here, before any group starts: the unfold and
  // factor pre-passes, then (RunGroups) the condensation and the analyses,
  // all over the program the pre-passes produced. A pass repeats only to
  // change that: a stage disabled after a failure (absint after a watchdog
  // trip), or predicates newly demoted to kNoUnfold exempted from the
  // pre-passes. Each repeat drops a stage or adds an exemption, so it ends.
  PipelineOptions pass_options = options_;
  // What earlier passes settled: runs, stage flags, every ladder state.
  PipelineReport earlier;
  earlier.runs = 0;
  for (const PredId& p : original.pred_order()) {
    PredOutcome& o = earlier.preds.emplace_back();
    o.pred = p;
    o.name = reader::PredName(*store_, p);
  }
  analysis::PredSet skip;  // exempt from the pre-passes (kNoUnfold and below)

  // Unattributable failures, cancellation and expired deadlines land on
  // the always-correct identity program, with the reason on record.
  auto identity = [&](const std::string& why) {
    PipelineResult result;
    result.report = earlier;
    result.report.runs = earlier.runs + 1;
    result.report.global_trigger = why;
    for (PredOutcome& o : result.report.preds) {
      o.level = LadderLevel::kIdentity;
      o.clauses_changed = o.goals_changed = false;
      for (const reader::Clause& clause : original.ClausesOf(o.pred)) {
        result.program.AddClause(*store_, clause);
      }
    }
    for (term::TermRef d : original.directives()) {
      result.program.AddDirective(d);
    }
    return result;
  };

  for (;;) {
    if (prore::Status ctx = options_.exec.Check(); !ctx.ok()) {
      return identity(ctx.ToString());
    }

    // ---- Stage 1: unfold / factor pre-passes ---------------------------
    // A failure here is rarely attributable to one predicate, so the
    // fallback is coarser: disable the whole stage and re-run.
    const reader::Program* working = &original;
    prore::Result<reader::Program> unfolded = reader::Program();
    prore::Result<reader::Program> factored = reader::Program();
    if (pass_options.unfold) {
      UnfoldOptions uo = options_.unfold_options;
      uo.skip = skip;
      unfolded = Guarded("unfold", [&] {
        return UnfoldProgram(store_, *working, uo);
      });
      if (!unfolded.ok()) {
        pass_options.unfold = false;
        earlier.unfold_disabled = true;
        earlier.unfold_trigger = unfolded.status().ToString();
        ++earlier.runs;
        continue;
      }
      working = &*unfolded;
    }
    if (pass_options.factor) {
      factored = Guarded("factor", [&] {
        return FactorDisjunctions(store_, *working, nullptr, &skip);
      });
      if (!factored.ok()) {
        pass_options.factor = false;
        earlier.factor_disabled = true;
        earlier.factor_trigger = factored.status().ToString();
        ++earlier.runs;
        continue;
      }
      working = &*factored;
    }

    // ---- Stage 2: the dependency groups --------------------------------
    // A group's result depends on what earlier passes settled (its
    // members' rungs, absint on or off): key entries by that too.
    pass_options.cache_salt =
        analysis::HashBytes(options_.cache_salt, earlier.ToJson());
    auto pass = Guarded("pipeline", [&] {
      return GuardedPipeline(store_, pass_options)
          .RunGroups(original, *working, earlier);
    });
    if (!pass.ok()) {
      // An absint watchdog trip is a stage failure, not a predicate's
      // fault: drop the stage (baseline estimates) and re-run the analyses
      // instead of falling to identity.
      if (pass_options.reorder.absint &&
          pass.status().code() == prore::StatusCode::kResourceExhausted &&
          pass.status().error_term() == "resource_error(watchdog(absint))") {
        pass_options.reorder.absint = false;
        earlier.absint_disabled = true;
        earlier.absint_trigger = pass.status().ToString();
        ++earlier.runs;
        continue;
      }
      return identity(pass.status().ToString());
    }

    // ---- Stage 3: a kNoUnfold demotion re-runs the pre-passes without it
    bool exempted = false;
    for (const PredOutcome& o : pass->report.preds) {
      if ((pass_options.unfold || pass_options.factor) &&
          !options_.stop_on_degrade && o.level >= LadderLevel::kNoUnfold &&
          skip.insert(o.pred).second) {
        exempted = true;
      }
    }
    if (!exempted) return pass;
    earlier.runs = pass->report.runs;
    earlier.preds = std::move(pass->report.preds);
  }
}

prore::Result<PipelineResult> GuardedPipeline::RunGroup(
    const reader::Program& sub, const GroupContext& group,
    const Outcomes& carried) {
  const std::vector<PredId>& preds = *group.members;
  // The members' ladder state, picked up where earlier passes left it.
  PipelineReport report;
  for (const PredId& p : preds) {
    PredOutcome& o = report.preds.emplace_back(carried.at(p));
    o.clauses_changed = o.goals_changed = false;
  }
  auto member = [&](const PredId& p) -> PredOutcome* {
    for (PredOutcome& o : report.preds) {
      if (o.pred == p) return &o;
    }
    return nullptr;
  };
  const bool prepass = options_.unfold || options_.factor;
  bool exempted = false;  // a member went to kNoUnfold

  // One rung per member per run, plus one transient retry each, bounds the
  // loop; the cap is slack on top of that, never the expected exit path.
  const size_t max_runs = 4 * preds.size() + 8;

  // Demotes one rung; false if already at the bottom.
  auto demote = [&](PredOutcome& o, const std::string& why) -> bool {
    if (o.level == LadderLevel::kIdentity) return false;
    // Without an unfold/factor stage the kNoUnfold rung is a no-op retry
    // of kFull; skip straight to clause-order-only.
    if (o.level == LadderLevel::kFull && prepass) {
      o.level = LadderLevel::kNoUnfold;
      exempted = true;
    } else {
      o.level = o.level == LadderLevel::kClauseOrderOnly
                    ? LadderLevel::kIdentity
                    : LadderLevel::kClauseOrderOnly;
    }
    ++o.attempts;
    o.triggers.push_back(why);
    return true;
  };

  // The members verbatim, published under their original names.
  auto verbatim = [&]() -> prore::Result<PipelineResult> {
    PipelineResult result;
    for (const PredId& p : preds) {
      for (const reader::Clause& clause : sub.ClausesOf(p)) {
        result.program.AddClause(*store_, clause);
      }
    }
    result.report = std::move(report);
    result.summary = IdentitySummary(*store_, preds);
    return result;
  };
  auto identity_fallback = [&](const std::string& why) {
    report.global_trigger = why;
    for (PredOutcome& o : report.preds) o.level = LadderLevel::kIdentity;
    return verbatim();
  };

  for (size_t run = 1; run <= max_runs; ++run) {
    // The pre-passes must be re-run without a kNoUnfold member
    // (GuardedPipeline::Run); building on their output is wasted.
    if (exempted) return verbatim();
    report.runs = static_cast<int>(run);

    // A cancelled or past-deadline context stops starting new attempts.
    if (prore::Status ctx = options_.exec.Check(); !ctx.ok()) {
      return identity_fallback(ctx.ToString());
    }

    ReorderOptions ro = options_.reorder;
    for (const PredOutcome& o : report.preds) {
      if (o.level == LadderLevel::kClauseOrderOnly) {
        ro.clause_order_only.insert(o.pred);
      }
      if (o.level == LadderLevel::kIdentity) ro.identity_preds.insert(o.pred);
    }
    ro.cost_watchdog = options_.cost_watchdog;
    ro.exec = options_.exec;
    if (options_.fault != nullptr) ro.fault = options_.fault;
    PredOutcome* blamed = nullptr;
    auto user_cb = options_.reorder.on_pred_error;
    ro.on_pred_error = [&](const PredId& p, const prore::Status& st) {
      blamed = member(p);
      if (user_cb) user_cb(p, st);
    };

    auto rr = Guarded("reorderer",
                      [&] { return Reorderer(store_, ro).Run(sub, &group); });

    if (!rr.ok()) {
      const prore::FaultClass fc = prore::ClassifyFaultStatus(rr.status());
      // Cancellation and an expired global deadline are not predicate
      // faults — retrying or demoting cannot outrun them.
      if (fc == prore::FaultClass::kCancelled ||
          rr.status().error_term() == "resource_error(deadline_exceeded)") {
        return identity_fallback(rr.status().ToString());
      }
      if (blamed != nullptr) {
        PredOutcome& o = *blamed;
        o.fault_class = prore::FaultClassName(fc);
        // Transient faults (watchdog trips, OOM) get one retry with
        // backoff at the same ladder rung before demotion: the failure
        // may have been scheduling noise or a contended sibling group.
        if (fc == prore::FaultClass::kTransient && options_.retry.enabled() &&
            o.retries < options_.retry.max_retries() &&
            o.level != LadderLevel::kIdentity) {
          ++o.retries;
          ++o.attempts;
          o.triggers.push_back("retry (transient): " +
                               rr.status().ToString());
          if (!prore::BackoffSleep(options_.retry.ToBackoff(), o.retries,
                                   options_.exec)
                   .ok()) {
            return identity_fallback(options_.exec.Check().ToString());
          }
          continue;
        }
        if (demote(o, rr.status().ToString())) continue;
      }
      // Unattributable (a setup failure over the subprogram) or an
      // identity build failed (which must not happen): the only safe
      // landing is the identity program.
      return identity_fallback(rr.status().ToString());
    }

    // ---- Validator diagnostics as quarantine triggers ------------------
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
      PredOutcome* o = it != owner.end() ? member(it->second) : nullptr;
      std::string why = d.code + ": " + d.message;
      // No predicate to blame (or it is already at identity, which
      // self-validates — a contradiction): identity for everything.
      if (o == nullptr) return identity_fallback(why);
      // Validator findings reproduce on identical input: deterministic,
      // never retried.
      o->fault_class = prore::FaultClassName(prore::FaultClass::kDeterministic);
      if (!demote(*o, why)) return identity_fallback(why);
      demoted_any = true;
    }
    if (demoted_any) continue;

    // ---- Success --------------------------------------------------------
    for (const PredModeReport& r : rr->reports) {
      PredOutcome* o = member(r.pred);
      if (o == nullptr) continue;
      o->clauses_changed = o->clauses_changed || r.clauses_changed;
      o->goals_changed = o->goals_changed || r.goals_changed;
    }
    PipelineResult result;
    result.program = std::move(rr->program);
    result.reports = std::move(rr->reports);
    result.diagnostics = std::move(rr->diagnostics);
    result.report = std::move(report);
    result.summary = std::move(rr->summary);
    return result;
  }

  return identity_fallback(
      prore::StrFormat("attempt budget exhausted after %zu runs",
                       max_runs));
}

prore::Result<PipelineResult> GuardedPipeline::RunGroups(
    const reader::Program& original, const reader::Program& working,
    const PipelineReport& earlier) {
  Outcomes carried;
  for (const PredOutcome& o : earlier.preds) carried.emplace(o.pred, o);
  // Condensation and the analyses whose facts flow caller -> callee
  // (cut-freezing, mode inference, absint) run at most once, on the
  // calling thread, over the whole program the groups are built from.
  PRORE_ASSIGN_OR_RETURN(auto decls,
                         analysis::ParseDeclarations(*store_, working));
  PRORE_ASSIGN_OR_RETURN(auto graph,
                         analysis::CallGraph::Build(*store_, working));
  PRORE_ASSIGN_OR_RETURN(auto frozen,
                         FrozenDescendants(*store_, working, graph));
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(graph);
  const std::vector<PredId>& preds = working.pred_order();
  const analysis::PredSet all_preds(preds.begin(), preds.end());

  // Mode inference and absint run when some group has to be built, or to
  // key a program the cache has not seen.
  std::optional<CallPatterns> patterns;
  auto analyze = [&]() -> prore::Status {
    ReorderOptions ro = options_.reorder;
    ro.inference.watchdog = options_.inference_watchdog;
    ro.absint_watchdog = options_.absint_watchdog;
    ro.exec = options_.exec;
    PRORE_ASSIGN_OR_RETURN(
        patterns, AnalyzeCallPatterns(*store_, working, graph, decls, ro));
    return prore::Status::OK();
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
        *store_, working, dg, options_.cache_salt);
    uint64_t program_key = 0;
    for (uint64_t h : hashes.group_hash) {
      program_key = analysis::HashMix(program_key, h);
    }
    if (auto known = options_.cache->LookupGroupKeys(program_key)) {
      keys = *known;
    } else {
      PRORE_RETURN_IF_ERROR(analyze());
      keys = analysis::FoldCallerFacts(*store_, dg, hashes,
                                       CallerFacts(preds, frozen, *patterns));
      options_.cache->InsertGroupKeys(program_key, keys);
    }
    for (size_t gi = 0; gi < dg.size(); ++gi) {
      GroupRun& gr = runs[gi];
      auto entry = options_.cache->Lookup(keys[gi]);
      PipelineResult replay;
      std::vector<const CalleeSummary*> callees;  // the direct ones
      for (size_t d : dg.deps[gi]) callees.push_back(&runs[d].summary);
      if (entry != nullptr &&
          !TryAdoptCachedGroup(*entry, dg.groups[gi], working, callees,
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
  if (cache_hits < dg.size() && !patterns.has_value()) {
    PRORE_RETURN_IF_ERROR(analyze());
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

  // Sibling-group interruption: every group task runs under a child
  // cancellation scope of the pipeline's own context, so (a) a caller's
  // cancel propagates into every in-flight group's analyses, and (b)
  // stop_on_degrade can cancel the siblings from inside a task the
  // moment one group degrades (prore --strict: the exit code is already
  // decided, finishing the other groups buys nothing).
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
      gr.result = Guarded("pipeline group", [&] {
        gr.store.AdoptSymbols(*store_);
        GroupContext context{&dg.groups[gi], &frozen, &all_preds, &*patterns,
                             {}};
        analysis::PredSet in_sub(dg.groups[gi].begin(), dg.groups[gi].end());
        for (size_t d : dg.TransitiveDeps(gi)) {
          in_sub.insert(dg.groups[d].begin(), dg.groups[d].end());
          context.callees.push_back(&runs[d].summary);
        }
        reader::Program sub;
        for (const PredId& p : preds) {
          if (in_sub.count(p) == 0) continue;
          for (const reader::Clause& c : working.ClausesOf(p)) {
            std::unordered_map<uint32_t, term::TermRef> vars;
            reader::Clause copy;
            copy.head = gr.store.CopyFrom(*store_, c.head, &vars);
            copy.body = gr.store.CopyFrom(*store_, c.body, &vars);
            sub.AddClause(gr.store, copy);
          }
        }
        // Declarations (legal modes etc.) may concern any predicate; copy
        // them all and let each group pick out what it needs.
        for (term::TermRef d : working.directives()) {
          sub.AddDirective(gr.store.CopyFrom(*store_, d));
        }

        PipelineOptions po = options_;
        po.exec = group_exec;
        return GuardedPipeline(&gr.store, std::move(po))
            .RunGroup(sub, context, carried);
      });
      if (gr.result.ok()) {
        gr.summary = std::move(gr.result->summary);
        if (options_.stop_on_degrade && gr.result->report.degraded()) {
          group_cancel.RequestCancel(prore::StrFormat(
              "sibling group %zu degraded under stop_on_degrade", gi));
        }
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
  // A cancel or an expired deadline lands on the identity program however
  // far the groups got, so the output never depends on their timing.
  PRORE_RETURN_IF_ERROR(options_.exec.Check());

  // ---- Deterministic merge ---------------------------------------------
  // Reports, diagnostics and cache entries are gathered in group order —
  // the bottom-up order the whole-program reorderer builds in. A group's
  // output lists each member's versions just before the clauses under
  // the member's own name; the program is then emitted member by member
  // in source order, exactly as one whole-program run assembles it.
  PipelineResult out;
  PipelineReport& rep = out.report;
  rep = earlier;
  rep.preds.clear();
  int group_runs = 1;
  std::unordered_map<PredId, PredOutcome, term::PredIdHash> outcomes;
  // Owned predicate -> its group, and its versions followed by itself.
  std::unordered_map<PredId, std::pair<size_t, std::vector<PredId>>,
                     term::PredIdHash>
      chunks;
  std::vector<std::unique_ptr<GroupCacheEntry>> entries(dg.size());

  for (size_t gi = 0; gi < dg.size(); ++gi) {
    GroupRun& gr = runs[gi];
    if (!gr.result.ok()) {
      // A group that never ran (stopped, or lost to a worker exception)
      // lands on identity, so the merged program stays complete.
      std::string why = gr.result.status().ToString();
      for (const PredId& p : dg.groups[gi]) {
        PredOutcome o = carried.at(p);
        o.level = LadderLevel::kIdentity;
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
    group_runs = std::max(group_runs, pr.report.runs);
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
      // An identity member ships the original clause terms themselves.
      auto o = outcomes.find(q);
      const bool verbatim =
          o != outcomes.end() && o->second.level == LadderLevel::kIdentity;
      for (const reader::Clause& c :
           (verbatim ? original : gr.result->program).ClausesOf(q)) {
        reader::Clause copy = c;
        if (!verbatim && !gr.hit) {  // hits were parsed into the main store
          std::unordered_map<uint32_t, term::TermRef> vars;
          copy.head = store_->CopyFrom(gr.store, c.head, &vars);
          copy.body = store_->CopyFrom(gr.store, c.body, &vars);
        }
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
  rep.runs += group_runs;
  rep.cache_hits = cache_hits;
  rep.cache_misses = cache_misses;
  rep.cache_rejected = cache_rejected;
  for (term::TermRef d : original.directives()) out.program.AddDirective(d);
  // Every predicate is some group's member.
  for (const PredId& p : preds) rep.preds.push_back(outcomes.at(p));
  return out;
}

}  // namespace prore::core
