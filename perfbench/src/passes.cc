// The pipeline/engine phase. Each program is reordered the way `prore`
// does it (whole-program, sharded at jobs=N, sharded over a warm analysis
// cache), its output written and re-read, and its query workload solved.
// A warm-up pass makes the reference outputs and verifies answer sets on
// the original and both outputs. An untraced run then times one stage of
// one program per step, each checked against the warm-up, so that every
// stage's samples spread over the whole window. A traced run makes whole
// passes instead: a traced pass makes the same calls as an untraced one,
// so the two compare for tracing overhead, and it is followed by a
// decomposition pass of standalone calls into the analyses, the reorderer
// and the validator, which splits the reorderer's time by layer.

#include "analysis/absint/absint.h"
#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "bench.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/analysis_cache.h"
#include "core/pipeline.h"
#include "core/reorderer.h"
#include "core/restrictions.h"
#include "engine/database.h"
#include "engine/machine.h"
#include "lint/validate.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace perfbench {

namespace {

using prore::StrFormat;
namespace core = prore::core;
namespace engine = prore::engine;
namespace reader = prore::reader;
namespace term = prore::term;
namespace analysis = prore::analysis;

size_t ParallelJobs() {
  return std::min<size_t>(4, prore::ThreadPool::HardwareConcurrency());
}

/// Engine counters of one query unit.
struct UnitCounts {
  uint64_t calls = 0;
  uint64_t head_unifications = 0;
  uint64_t solutions = 0;
  bool operator==(const UnitCounts&) const = default;
};

/// Everything one solve of a program's workload produced.
struct SolveRun {
  std::vector<UnitCounts> units;
  engine::Metrics total;
  double solve_ms = 0;
  /// Per query, sorted rendered answers (only when collecting).
  std::vector<std::vector<std::string>> answers;
};

/// The stages an untraced run's steps time, each sampling one end-to-end
/// metric.
enum Stage { kWhole, kParallel, kWarm, kSolve, kNumStages };
const char* const kStageMetric[kNumStages] = {"reorder_s", "reorder_par_s",
                                              "reorder_warm_s", "solve_s"};

/// Per-program state carried from the warm-up pass to the measured steps.
struct ProgramState {
  /// Timed milliseconds of each stage, one per measured run of it.
  std::vector<double> samples_ms[kNumStages];
  std::string text_whole;    ///< jobs=0 output
  std::string text_sharded;  ///< jobs=1 output, the sharded reference
  std::vector<UnitCounts> orig, whole, sharded;
  std::unique_ptr<core::AnalysisCache> cache;
  /// Loops of the timed solve per sample (set by the warm-up).
  int solve_repeats = 1;
};

/// A solve sample of a short workload loops it until about this long and
/// keeps the fastest loop.
constexpr double kSolveSampleMs = 200;

/// Samples of a stage per program past which its lower quartile hardly
/// moves.
constexpr size_t kEnoughSamples = 30;

/// What one run of a stage produced besides its time.
struct StageRun {
  double ms = 0;
  size_t clauses = 0;
  core::PipelineReport report;  ///< kWarm: the cache's hits and misses
  bool byte_diff = false;       ///< kWarm: differs from cold in its bytes
  engine::Metrics total;        ///< kSolve: the engine's counters
};

}  // namespace

class PassPhase::Runner {
 public:
  Runner(const RunOptions& opts, WorkloadInputs* inputs, Tracer* tracer,
         Tally* tally)
      : opts_(opts), inputs_(inputs), tracer_(tracer), tally_(tally),
        states_(inputs->programs.size()) {}

  /// The warm-up pass over every program: the reference outputs (jobs=0
  /// and jobs=1, which also fills the analysis cache), a warm reorder, and
  /// the answer sets of the original and both outputs, checked against
  /// each other and the goldens.
  void Warmup(PassResults* out);

  /// One measured pass over every program (traced runs); `traced` records
  /// per-layer samples.
  void Pass(bool traced, PassResults* out);

  /// One sample (untraced runs): the stage with the least time spent on it
  /// so far (among those short of kEnoughSamples), of the program with the
  /// fewest samples of that stage.
  void Step();

  /// Whether every stage of every program has two samples.
  bool Satisfied() const;

  /// A traced pass of the calls an untraced pass does not make: jobs=1,
  /// and standalone calls into the analyses, the reorderer and the
  /// validator, so the reorderer's time can be split by layer.
  void Decomposition(PassResults* out);

  /// The end-to-end metrics: per stage, the sum over programs of the lower
  /// quartile of the program's samples, in seconds; the quality ratios and
  /// output_bytes from the warm-up's exact counts. Sample counts go to
  /// `notes`.
  void EndToEnd(MetricMap* e2e, std::vector<std::string>* notes) const;

  /// The warm-up's jobs=1 output of program `i`.
  const std::string& ShardedText(size_t i) const {
    return states_[i].text_sharded;
  }

 private:
  std::string Reorder(const ProgramInput& p, core::PipelineOptions po,
                      const char* span, double* ms, size_t* clauses,
                      core::PipelineReport* report);
  SolveRun Solve(const ProgramInput& p, const std::string& text,
                 const char* span, bool collect, size_t* clauses,
                 int repeats = 1);
  /// Runs `stage` of program `i` and checks its output against the
  /// warm-up's.
  StageRun RunStage(size_t i, Stage stage);
  void Decompose(const ProgramInput& p, MetricMap* sums);
  /// Span time by name since `start` (main thread), and the share of
  /// [start, end) the spans cover, recorded in `out`.
  std::map<std::string, double> Coverage(Clock::time_point start,
                                         Clock::time_point end,
                                         PassResults* out);

  bool Check(bool ok, const std::string& what) {
    tally_->Check(ok, what);
    return ok;
  }

  const RunOptions& opts_;
  WorkloadInputs* inputs_;
  Tracer* tracer_;
  Tally* tally_;
  std::vector<ProgramState> states_;
  /// Wall time the steps of each stage took, over all programs.
  double spent_ms_[kNumStages] = {};
};

std::string PassPhase::Runner::Reorder(const ProgramInput& p,
                                       core::PipelineOptions po,
                                       const char* span, double* ms,
                                       size_t* clauses,
                                       core::PipelineReport* report) {
  term::TermStore store;
  prore::Result<reader::Program> program = [&] {
    Tracer::Scope s(tracer_, "reader.parse");
    return reader::ParseProgramText(&store, p.source);
  }();
  if (!Check(program.ok(), p.name + ": parse failed")) return "";
  *clauses += program->NumClauses();
  prore::Result<core::PipelineResult> result = [&] {
    Tracer::Scope s(tracer_, span);
    core::GuardedPipeline pipeline(&store, std::move(po));
    auto r = pipeline.Run(*program);
    *ms = s.ElapsedMs();
    return r;
  }();
  if (!Check(result.ok(),
             p.name + ": " + span + " failed: " +
                 (result.ok() ? "" : result.status().ToString()))) {
    return "";
  }
  // Degradation is the pipeline healing itself, not an error: the output
  // is still checked like any other. Quarantines are counted exactly.
  if (result->report.degraded()) {
    tally_->defects[StrFormat("%s quarantined predicates (x runs)", span)] +=
        std::max<size_t>(1, result->report.quarantined());
  }
  if (report != nullptr) *report = result->report;
  Tracer::Scope s(tracer_, "reader.write");
  return reader::WriteProgram(store, result->program);
}

SolveRun PassPhase::Runner::Solve(const ProgramInput& p,
                                  const std::string& text, const char* span,
                                  bool collect, size_t* clauses, int repeats) {
  SolveRun run;
  term::TermStore store;
  prore::Result<reader::Program> program = [&] {
    Tracer::Scope s(tracer_, "reader.parse");
    return reader::ParseProgramText(&store, text);
  }();
  if (!Check(program.ok(), p.name + ": re-read of " + span + " failed")) {
    return run;
  }
  *clauses += program->NumClauses();
  prore::Result<engine::Database> db = [&] {
    Tracer::Scope s(tracer_, "engine.build");
    return engine::Database::Build(&store, *program);
  }();
  if (!Check(db.ok(), p.name + ": database build failed")) return run;

  std::vector<std::vector<reader::ReadTerm>> queries(p.units.size());
  {
    Tracer::Scope s(tracer_, "reader.parse");
    for (size_t u = 0; u < p.units.size(); ++u) {
      for (const std::string& q : p.units[u].queries) {
        auto parsed = reader::ParseQueryText(&store, q + ".");
        if (!Check(parsed.ok(), p.name + ": query " + q)) return run;
        queries[u].push_back(std::move(*parsed));
      }
    }
  }
  engine::Machine machine(&store, &*db);
  Tracer::Scope s(tracer_, span);
  const Clock::time_point start = Clock::now();
  for (size_t u = 0; u < queries.size(); ++u) {
    UnitCounts counts;
    for (const reader::ReadTerm& q : queries[u]) {
      std::vector<std::string> answers;
      engine::Machine::SolutionCallback on_solution;
      if (collect) {
        on_solution = [&]() {
          std::string b;
          for (const auto& [name, var] : q.var_names) {
            if (!b.empty()) b += ", ";
            b += name + " = " + reader::WriteTerm(store, var);
          }
          answers.push_back(b);
          return true;
        };
      }
      auto m = machine.Solve(q.term, on_solution);
      if (!Check(m.ok(), p.name + ": solve failed on " + span + ": " +
                             (m.ok() ? "" : m.status().ToString()))) {
        return run;
      }
      counts.calls += m->TotalCalls();
      counts.head_unifications += m->head_unifications;
      counts.solutions += m->solutions;
      if (collect) {
        std::sort(answers.begin(), answers.end());
        run.answers.push_back(std::move(answers));
      }
    }
    run.units.push_back(counts);
  }
  run.solve_ms = MsSince(start, Clock::now());
  run.total = machine.total_metrics();
  // A short workload is solved again until about kSolveSampleMs have been
  // spent; the loop's best time is its sample. Counters are the first
  // loop's (every loop makes the same calls).
  for (int rep = 1; rep < repeats && !collect; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (const auto& unit : queries) {
      for (const reader::ReadTerm& q : unit) (void)machine.Solve(q.term);
    }
    run.solve_ms = std::min(run.solve_ms, MsSince(t0, Clock::now()));
  }
  return run;
}

/// Standalone calls into the analyses, the reorderer and the validator:
/// the reorderer runs the same analyses inside Reorderer::Run, so its
/// search time is the residual after subtracting these.
void PassPhase::Runner::Decompose(const ProgramInput& p, MetricMap* sums) {
  auto add = [sums](const std::string& name, const std::string& unit,
                    double v) {
    Metric& m = (*sums)[name];
    m.unit = unit;
    if (m.samples.empty()) m.samples.push_back(0);
    m.samples[0] += v;
  };
  // Runs `f` inside a span and adds its wall time to metric `name`_ms.
  auto timed = [&](const char* span, const std::string& name, auto&& f) {
    Tracer::Scope s(tracer_, span);
    auto r = f();
    add(name + "_ms", "ms", s.ElapsedMs());
    return r;
  };
  term::TermStore store;
  prore::Result<reader::Program> program = [&] {
    Tracer::Scope s(tracer_, "reader.parse");
    return reader::ParseProgramText(&store, p.source);
  }();
  if (!Check(program.ok(), p.name + ": parse failed")) return;

  auto graph = timed("analysis.callgraph", "analysis.callgraph", [&] {
    return analysis::CallGraph::Build(store, *program);
  });
  if (!Check(graph.ok(), p.name + ": call graph failed")) return;
  add("analysis.groups", "count",
      static_cast<double>(analysis::ComputeDependencyGroups(*graph).size()));
  auto fixity = timed("analysis.fixity", "analysis.fixity", [&] {
    return analysis::AnalyzeFixity(store, *program, *graph);
  });
  if (!Check(fixity.ok(), p.name + ": fixity failed")) return;
  auto decls = timed("analysis.modes", "analysis.modes", [&] {
    return analysis::ParseDeclarations(store, *program);
  });
  if (!Check(decls.ok(), p.name + ": declarations failed")) return;
  auto modes = timed("analysis.modes", "analysis.modes", [&] {
    return analysis::InferModes(store, *program, *graph, *decls);
  });
  if (!Check(modes.ok(), p.name + ": mode inference failed")) return;
  auto absint = timed("analysis.absint", "analysis.absint", [&] {
    auto r = analysis::absint::RunAbsint(store, *program, *graph, *decls,
                                         &*modes);
    if (r.ok()) {
      analysis::absint::TightenModes(store, r->groundness, &modes->table);
    }
    return r;
  });
  if (!Check(absint.ok(), p.name + ": absint failed")) return;
  add("analysis.absint.transfers", "count",
      static_cast<double>(absint->stats.groundness_transfers +
                          absint->stats.determinism_transfers));

  auto result = timed("core.reorder", "core.reorder", [&] {
    return core::Reorderer(&store).Run(*program);
  });
  if (!Check(result.ok(), p.name + ": Reorderer::Run failed")) return;
  add("core.versions", "count", static_cast<double>(result->reports.size()));

  // The validator's inputs, assembled as Reorderer::Run assembles them;
  // the restriction analyses among them count as fixity time.
  analysis::LegalityOracle oracle(&store, &*program, &*graph, &*modes);
  auto frozen = timed("analysis.fixity", "analysis.fixity", [&] {
    auto r = core::FrozenDescendants(store, *program, *graph);
    if (r.ok() && !analysis::RefineSemifixity(store, *program, *graph,
                                              &oracle, &*fixity)
                       .ok()) {
      return prore::Result<analysis::PredSet>(
          prore::Status::Internal("semifixity failed"));
    }
    return r;
  });
  if (!Check(frozen.ok(), p.name + ": restriction analyses failed")) return;
  auto findings = timed("lint.validate", "lint.validate", [&] {
    prore::lint::ReorderCheckInput check;
    check.original = &*program;
    check.transformed = &result->program;
    for (const auto& r : result->reports) {
      check.versions.push_back(
          prore::lint::VersionInfo{r.pred, r.mode, r.version_name});
    }
    check.modes = &*modes;
    check.oracle = &oracle;
    check.fixity = &*fixity;
    check.no_reorder = *frozen;
    for (const auto& id : program->pred_order()) {
      if (fixity->IsFixed(id) ||
          (graph->IsRecursive(id) && !decls->legal_modes.Has(id))) {
        check.no_reorder.insert(id);
      }
    }
    return prore::lint::ValidateReorder(&store, check);
  });
  size_t errors = 0;
  for (const auto& d : findings) {
    if (d.severity == prore::lint::Severity::kError) ++errors;
  }
  // Reorderer::Run ships what it built; GuardedPipeline is what acts on
  // the validator's errors (by quarantining). Count them, as a defect.
  if (errors > 0) {
    tally_->defects["validator errors on Reorderer::Run output (x traced "
                    "passes)"] += errors;
  }
}

StageRun PassPhase::Runner::RunStage(size_t i, Stage stage) {
  const ProgramInput& p = inputs_->programs[i];
  const ProgramState& st = states_[i];
  StageRun r;
  switch (stage) {
    case kWhole: {
      const std::string text =
          Reorder(p, core::PipelineOptions(), "core.pipeline.jobs0", &r.ms,
                  &r.clauses, nullptr);
      Check(text == st.text_whole,
            p.name + ": jobs=0 output changed between passes");
      break;
    }
    case kParallel: {
      core::PipelineOptions par;
      par.jobs = ParallelJobs();
      const std::string text = Reorder(p, par, "core.pipeline.jobsN", &r.ms,
                                       &r.clauses, nullptr);
      Check(text == st.text_sharded,
            p.name +
                StrFormat(": jobs=%zu output differs from jobs=1", par.jobs));
      break;
    }
    case kWarm: {
      core::PipelineOptions warm;
      warm.jobs = 1;
      warm.cache = st.cache.get();
      warm.cache_salt = 1;
      const std::string text = Reorder(p, warm, "core.pipeline.warm", &r.ms,
                                       &r.clauses, &r.report);
      // The warm output must be the cold sharded program byte for byte. On
      // the programs where the rename defect was recorded, generated
      // variable names may differ (counted); anywhere else they may not.
      r.byte_diff = text != st.text_sharded;
      Check(!r.byte_diff ||
                (KnownRenameDefect(p.name) &&
                 CanonicalVars(text) == CanonicalVars(st.text_sharded)),
            p.name + ": warm-cache output differs from cold sharded output");
      if (r.byte_diff) {
        ++tally_->defects["warm-cache output renames variables (warm "
                          "reorders)"];
      }
      break;
    }
    case kSolve: {
      const SolveRun run = Solve(p, st.text_whole, "engine.solve", false,
                                 &r.clauses, st.solve_repeats);
      Check(run.units == st.whole,
            p.name + ": engine counters changed between passes");
      r.ms = run.solve_ms;
      r.total = run.total;
      break;
    }
    case kNumStages:
      break;
  }
  return r;
}

void PassPhase::Runner::Warmup(PassResults* out) {
  for (size_t i = 0; i < inputs_->programs.size(); ++i) {
    const ProgramInput& p = inputs_->programs[i];
    ProgramState& st = states_[i];
    double ms = 0;
    size_t clauses = 0;
    // The reference outputs. The jobs=1 run also fills the cache the warm
    // runs use.
    st.text_whole = Reorder(p, core::PipelineOptions(), "core.pipeline.jobs0",
                            &ms, &clauses, nullptr);
    core::PipelineOptions one;
    one.jobs = 1;
    st.cache = std::make_unique<core::AnalysisCache>(1u << 16);
    one.cache = st.cache.get();
    one.cache_salt = 1;
    st.text_sharded =
        Reorder(p, one, "core.pipeline.jobs1", &ms, &clauses, nullptr);
    const StageRun warm = RunStage(i, kWarm);
    out->notes.push_back(StrFormat(
        "%s: warm pass cache hits %zu, misses %zu, rejected %zu",
        p.name.c_str(), warm.report.cache_hits, warm.report.cache_misses,
        warm.report.cache_rejected));

    SolveRun orig = Solve(p, p.source, "engine.orig.solve", true, &clauses);
    SolveRun whole = Solve(p, st.text_whole, "engine.solve", true, &clauses);
    SolveRun sharded =
        Solve(p, st.text_sharded, "engine.sharded.solve", true, &clauses);
    st.solve_repeats = static_cast<int>(std::clamp(
        kSolveSampleMs / std::max(0.01, whole.solve_ms), 1.0, 64.0));
    st.orig = orig.units;
    st.whole = whole.units;
    st.sharded = sharded.units;
    if (opts_.fabricate_mismatch && i == 0) {
      for (auto& a : whole.answers) {
        if (!a.empty()) {
          a.pop_back();
          break;
        }
      }
    }
    // The reference is the original program run by the engine.
    Check(whole.answers == orig.answers,
          p.name + ": jobs=0 output answer sets differ from the original");
    Check(sharded.answers == orig.answers,
          p.name + ": sharded output answer sets differ from the original");
    if (p.golden_calls != 0) {
      uint64_t calls = 0, hu = 0, answers = 0;
      for (const auto& u : orig.units) {
        calls += u.calls;
        hu += u.head_unifications;
        answers += u.solutions;
      }
      Check(calls == p.golden_calls && hu == p.golden_head_unifications &&
                answers == p.golden_answers,
            StrFormat("%s: original counters %llu calls / %llu head "
                      "unifications / %llu answers differ from the goldens",
                      p.name.c_str(), static_cast<unsigned long long>(calls),
                      static_cast<unsigned long long>(hu),
                      static_cast<unsigned long long>(answers)));
    }
    uint64_t oc = 0, wc = 0, sc = 0;
    for (size_t u = 0; u < orig.units.size(); ++u) {
      oc += orig.units[u].calls;
      if (u < whole.units.size()) wc += whole.units[u].calls;
      if (u < sharded.units.size()) sc += sharded.units[u].calls;
    }
    out->notes.push_back(StrFormat(
        "%s: calls original %llu, jobs=0 output %llu, sharded output %llu",
        p.name.c_str(), static_cast<unsigned long long>(oc),
        static_cast<unsigned long long>(wc),
        static_cast<unsigned long long>(sc)));
  }
}

void PassPhase::Runner::Step() {
  // Stages take turns by the time spent on them; once every program has
  // kEnoughSamples of a stage, the stage's turns go to the others (the
  // whole-program reorder of large_program takes over a second a sample,
  // its solve a fifth of that).
  auto enough = [this](int s) {
    for (const ProgramState& st : states_) {
      if (st.samples_ms[s].size() < kEnoughSamples) return false;
    }
    return true;
  };
  int pick = -1;
  for (int s = 0; s < kNumStages; ++s) {
    if (!enough(s) && (pick < 0 || spent_ms_[s] < spent_ms_[pick])) pick = s;
  }
  const Stage stage = pick >= 0
                          ? static_cast<Stage>(pick)
                          : static_cast<Stage>(std::min_element(
                                                   spent_ms_,
                                                   spent_ms_ + kNumStages) -
                                               spent_ms_);
  size_t program = 0;
  for (size_t i = 1; i < states_.size(); ++i) {
    if (states_[i].samples_ms[stage].size() <
        states_[program].samples_ms[stage].size()) {
      program = i;
    }
  }
  const Clock::time_point t0 = Clock::now();
  const StageRun r = RunStage(program, stage);
  states_[program].samples_ms[stage].push_back(r.ms);
  spent_ms_[stage] += MsSince(t0, Clock::now());
}

bool PassPhase::Runner::Satisfied() const {
  for (const ProgramState& st : states_) {
    for (const auto& samples : st.samples_ms) {
      if (samples.size() < 2) return false;
    }
  }
  return true;
}

void PassPhase::Runner::Pass(bool traced, PassResults* out) {
  double reorder_ms = 0, par_ms = 0, warm_ms = 0, solve_ms = 0, orig_ms = 0;
  size_t clauses = 0;
  uint64_t hits = 0, misses = 0, rejected = 0, byte_diffs = 0;
  engine::Metrics whole_total;

  const Clock::time_point pass_start = Clock::now();
  for (size_t i = 0; i < inputs_->programs.size(); ++i) {
    const ProgramInput& p = inputs_->programs[i];
    ProgramState& st = states_[i];
    StageRun runs[kNumStages];
    for (int s = 0; s < kNumStages; ++s) {
      runs[s] = RunStage(i, static_cast<Stage>(s));
      clauses += runs[s].clauses;
      if (!traced) st.samples_ms[s].push_back(runs[s].ms);
    }
    SolveRun orig =
        Solve(p, p.source, "engine.orig.solve", false, &clauses);
    SolveRun sharded =
        Solve(p, st.text_sharded, "engine.sharded.solve", false, &clauses);
    Check(orig.units == st.orig && sharded.units == st.sharded,
          p.name + ": engine counters changed between passes");
    reorder_ms += runs[kWhole].ms;
    par_ms += runs[kParallel].ms;
    warm_ms += runs[kWarm].ms;
    solve_ms += runs[kSolve].ms;
    orig_ms += orig.solve_ms;
    hits += runs[kWarm].report.cache_hits;
    misses += runs[kWarm].report.cache_misses;
    rejected += runs[kWarm].report.cache_rejected;
    byte_diffs += runs[kWarm].byte_diff ? 1 : 0;
    whole_total += runs[kSolve].total;
  }
  const Clock::time_point pass_end = Clock::now();
  const double pass_ms = MsSince(pass_start, pass_end);

  if (!traced) {
    AddSample(&out->layer, "bench.untraced_pass_ms", "ms", pass_ms,
              Reduce::kMin);
    return;
  }

  // Per-layer samples of this traced pass: summed span time by name.
  MetricMap& l = out->layer;
  const std::map<std::string, double> span_ms =
      Coverage(pass_start, pass_end, out);
  auto span = [&span_ms](const char* name) {
    auto it = span_ms.find(name);
    return it == span_ms.end() ? 0.0 : it->second;
  };
  AddSample(&l, "bench.traced_pass_ms", "ms", pass_ms, Reduce::kMin);
  AddSample(&l, "reader.parse_ms", "ms", span("reader.parse"), Reduce::kMin);
  AddSample(&l, "reader.write_ms", "ms", span("reader.write"), Reduce::kMin);
  AddSample(&l, "reader.clauses", "count", static_cast<double>(clauses));
  AddSample(&l, "core.pipeline.jobs0_ms", "ms", reorder_ms, Reduce::kMin);
  AddSample(&l, "core.pipeline.jobsN_ms", "ms", par_ms, Reduce::kMin);
  AddSample(&l, "core.pipeline.warm_ms", "ms", warm_ms, Reduce::kMin);
  AddSample(&l, "core.cache.hits", "count", static_cast<double>(hits));
  AddSample(&l, "core.cache.misses", "count", static_cast<double>(misses));
  AddSample(&l, "core.cache.rejected", "count", static_cast<double>(rejected));
  AddSample(&l, "core.cache.byte_diffs", "count",
            static_cast<double>(byte_diffs));
  AddSample(&l, "core.cache.hit_ratio", "ratio",
            hits + misses == 0 ? 0
                               : static_cast<double>(hits) /
                                     static_cast<double>(hits + misses));
  AddSample(&l, "engine.solve_ms", "ms", solve_ms, Reduce::kMin);
  AddSample(&l, "engine.orig.solve_ms", "ms", orig_ms, Reduce::kMin);
  AddSample(&l, "engine.calls", "count",
            static_cast<double>(whole_total.TotalCalls()));
  AddSample(&l, "engine.head_unifications", "count",
            static_cast<double>(whole_total.head_unifications));
  AddSample(&l, "engine.backtracks", "count",
            static_cast<double>(whole_total.backtracks));
  AddSample(&l, "engine.heap_cells", "count",
            static_cast<double>(whole_total.heap_cells));
  AddSample(&l, "engine.choicepoints_elided", "count",
            static_cast<double>(whole_total.choicepoints_elided));
  AddSample(&l, "engine.ns_per_call", "ns",
            whole_total.TotalCalls() == 0
                ? 0
                : solve_ms * 1e6 /
                      static_cast<double>(whole_total.TotalCalls()),
            Reduce::kMin);
}

std::map<std::string, double> PassPhase::Runner::Coverage(
    Clock::time_point start, Clock::time_point end, PassResults* out) {
  std::map<std::string, double> span_ms;
  for (const Tracer::Span& s : tracer_->spans()) {
    if (s.tid == 0 && s.start_us >= tracer_->OriginUs(start)) {
      span_ms[s.name] += s.dur_us / 1000;
    }
  }
  const double pass_ms = MsSince(start, end);
  const double covered = tracer_->CoveredMs(0, start, end);
  const double coverage = pass_ms > 0 ? covered / pass_ms : 1.0;
  out->min_coverage = std::min(out->min_coverage, coverage);
  out->unspanned_ms = std::max(out->unspanned_ms, pass_ms - covered);
  AddSample(&out->layer, "bench.span_coverage", "ratio", coverage,
            Reduce::kMin);
  return span_ms;
}

void PassPhase::Runner::Decomposition(PassResults* out) {
  MetricMap sums;
  double jobs1_ms = 0;
  size_t clauses = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < inputs_->programs.size(); ++i) {
    const ProgramInput& p = inputs_->programs[i];
    core::PipelineOptions one;
    one.jobs = 1;
    double ms = 0;
    Check(Reorder(p, one, "core.pipeline.jobs1", &ms, &clauses, nullptr) ==
              states_[i].text_sharded,
          p.name + ": jobs=1 output changed between passes");
    jobs1_ms += ms;
    Decompose(p, &sums);
  }
  Coverage(start, Clock::now(), out);
  MetricMap& l = out->layer;
  for (auto& [name, m] : sums) {
    AddSample(&l, name, m.unit, m.samples[0],
              m.unit == "ms" ? Reduce::kMin : Reduce::kMedian);
  }
  const double analyses = sums["analysis.callgraph_ms"].samples[0] +
                          sums["analysis.fixity_ms"].samples[0] +
                          sums["analysis.modes_ms"].samples[0] +
                          sums["analysis.absint_ms"].samples[0];
  AddSample(&l, "core.search_ms", "ms",
            sums["core.reorder_ms"].samples[0] - analyses -
                sums["lint.validate_ms"].samples[0],
            Reduce::kMin);
  AddSample(&l, "core.pipeline.jobs1_ms", "ms", jobs1_ms, Reduce::kMin);
}

void PassPhase::Runner::EndToEnd(MetricMap* e2e,
                                 std::vector<std::string>* notes) const {
  std::string counts;
  for (int s = 0; s < kNumStages; ++s) {
    Metric& m = (*e2e)[kStageMetric[s]];
    m.unit = "s";
    m.reduce = Reduce::kLowQuartile;
    m.piecewise = 0;
    size_t fewest = SIZE_MAX;
    for (const ProgramState& st : states_) {
      m.piecewise += Quantile(st.samples_ms[s], 0.25) / 1000;
      fewest = std::min(fewest, st.samples_ms[s].size());
    }
    counts += StrFormat("%s%s %zu", s == 0 ? "" : ", ", kStageMetric[s],
                        fewest);
  }
  notes->push_back("samples per program (fewest): " + counts);

  std::vector<double> calls_ratio, calls_ratio_sharded, hu_ratio;
  double bytes = 0;
  for (const ProgramState& st : states_) {
    bytes += static_cast<double>(st.text_whole.size());
    for (size_t u = 0; u < st.orig.size() && u < st.whole.size() &&
                       u < st.sharded.size();
         ++u) {
      const UnitCounts& o = st.orig[u];
      if (o.calls == 0 || st.whole[u].calls == 0 ||
          st.sharded[u].calls == 0) {
        continue;
      }
      calls_ratio.push_back(static_cast<double>(o.calls) /
                            static_cast<double>(st.whole[u].calls));
      calls_ratio_sharded.push_back(static_cast<double>(o.calls) /
                                    static_cast<double>(st.sharded[u].calls));
      if (o.head_unifications != 0 && st.whole[u].head_unifications != 0) {
        hu_ratio.push_back(static_cast<double>(o.head_unifications) /
                           static_cast<double>(st.whole[u].head_unifications));
      }
    }
  }
  AddSample(e2e, "calls_ratio", "x", GeoMean(calls_ratio));
  AddSample(e2e, "calls_ratio_sharded", "x", GeoMean(calls_ratio_sharded));
  AddSample(e2e, "head_unif_ratio", "x", GeoMean(hu_ratio));
  AddSample(e2e, "output_bytes", "bytes", bytes);
}

PassPhase::PassPhase(const RunOptions& opts, WorkloadInputs* inputs,
                     Tracer* tracer, Tally* tally)
    : runner_(std::make_unique<Runner>(opts, inputs, tracer, tally)),
      opts_(opts), tracer_(tracer) {}

PassPhase::~PassPhase() = default;

void PassPhase::Warmup() {
  tracer_->set_active(false);
  runner_->Warmup(&out_);
}

void PassPhase::Measure() {
  if (!opts_.trace) {
    runner_->Step();
    ++measured_;
    return;
  }
  // A traced run alternates untraced and traced passes so the two can be
  // compared for the tracing overhead.
  const bool traced = measured_ % 2 == 1;
  tracer_->set_active(traced);
  runner_->Pass(traced, &out_);
  if (traced) runner_->Decomposition(&out_);
  tracer_->set_active(false);
  ++measured_;
}

bool PassPhase::Satisfied() const {
  return opts_.trace ? measured_ >= 2 : runner_->Satisfied();
}

const std::string& PassPhase::ShardedText(size_t program) const {
  return runner_->ShardedText(program);
}

PassResults PassPhase::Finish() {
  runner_->EndToEnd(&out_.e2e, &out_.notes);
  if (opts_.trace) {
    MetricMap& l = out_.layer;
    out_.untraced_pass_ms = l["bench.untraced_pass_ms"].Value();
    out_.traced_pass_ms = l["bench.traced_pass_ms"].Value();
    const double jobs_n = static_cast<double>(ParallelJobs());
    AddSample(&l, "core.pipeline.parallel_efficiency", "ratio",
              l["core.pipeline.jobs1_ms"].Value() /
                  (l["core.pipeline.jobsN_ms"].Value() * jobs_n));
  }
  return std::move(out_);
}

}  // namespace perfbench
