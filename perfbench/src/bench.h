// Shared declarations of the perfbench driver: seeded inputs, the span
// recorder of the traced run, sample statistics, and the result records
// the pipeline/engine passes and the serve phase hand back to main.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// input on every platform (std distributions are not portable).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<size_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

// ---- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Geometric mean of positive ratios (1 when empty).
inline double GeoMean(const std::vector<double>& ratios) {
  if (ratios.empty()) return 1.0;
  double log_sum = 0.0;
  for (double r : ratios) log_sum += std::log(r);
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

/// How a metric's repeats reduce to its reported value.
enum class Reduce {
  kMedian,
  /// Best of the repeats: per-layer wall times of the traced passes.
  kMin,
  /// Lower quartile of the repeats: end-to-end wall times. The host's
  /// speed drifts with other tenants' load (the same solve loop measured
  /// 190..465 ms within one minute), so a median moves with the host and
  /// the single fastest repeat with its luckiest moment; the lower quartile
  /// of samples spread over the whole window moves with neither.
  kLowQuartile,
};

/// One reported metric: its per-repeat samples.
struct Metric {
  std::string unit;
  Reduce reduce = Reduce::kMedian;
  std::vector<double> samples;
  /// Metrics measured piecewise (per program): the sum of each piece's
  /// reduced samples, which replaces the reduced samples as the value.
  /// Negative = unset.
  double piecewise = -1;
  /// Factor the reported value is scaled by (the host-speed scaling of
  /// end-to-end times and rates).
  double scale = 1;
  double Value() const { return scale * Unscaled(); }
  double Unscaled() const {
    if (piecewise >= 0) return piecewise;
    if (samples.empty()) return 0.0;
    switch (reduce) {
      case Reduce::kMin:
        return *std::min_element(samples.begin(), samples.end());
      case Reduce::kLowQuartile:
        return Quantile(samples, 0.25);
      case Reduce::kMedian:
        break;
    }
    return Median(samples);
  }
};

/// Metrics by name, in a stable order.
using MetricMap = std::map<std::string, Metric>;

inline void AddSample(MetricMap* m, const std::string& name,
                      const std::string& unit, double value,
                      Reduce reduce = Reduce::kMedian) {
  Metric& metric = (*m)[name];
  metric.unit = unit;
  metric.reduce = reduce;
  metric.samples.push_back(value);
}

// ---- Tracing ----------------------------------------------------------------

/// Spans recorded around calls into a layer's public function, from any
/// thread. While inactive a Scope records nothing. Spans are kept in memory
/// and written as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t tid = 0;
    double start_us = 0;
    double dur_us = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Spans are recorded only while active.
  void set_active(bool active) { active_.store(active); }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t tid = 0)
        : tracer_(tracer->active_.load() ? tracer : nullptr), name_(name),
          tid_(tid), start_(Clock::now()) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->Record(name_, tid_, start_, Clock::now());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Elapsed milliseconds so far (also when tracing is off).
    double ElapsedMs() const { return MsSince(start_, Clock::now()); }

   private:
    Tracer* tracer_;
    const char* name_;
    uint64_t tid_;
    Clock::time_point start_;
  };

  void Record(const char* name, uint64_t tid, Clock::time_point t0,
              Clock::time_point t1);

  /// Milliseconds of [t0, t1) covered by the union of the spans on thread
  /// `tid` that intersect it.
  double CoveredMs(uint64_t tid, Clock::time_point t0,
                   Clock::time_point t1) const;

  double OriginUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeJson(const std::string& path) const;

  /// A copy of the spans recorded so far.
  std::vector<Span> spans() const;

 private:
  std::atomic<bool> active_{false};
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---- Inputs -----------------------------------------------------------------

/// A batch of queries whose calls are summed before taking a ratio; the
/// quality ratios are geometric means over units.
struct QueryUnit {
  std::string label;
  std::vector<std::string> queries;
};

/// One program the pipeline/engine passes reorder and solve.
struct ProgramInput {
  std::string name;
  std::string source;
  std::vector<QueryUnit> units;
  /// Golden counters of the original program under default SolveOptions
  /// (0 = no golden pinned for this program).
  uint64_t golden_calls = 0;
  uint64_t golden_head_unifications = 0;
  uint64_t golden_answers = 0;
};

/// A read request the serve phase may issue, with its expected answers
/// (the original program solved by the engine, rendered like prored).
struct ReadQuery {
  std::string session;
  std::string query;
  std::vector<std::string> answers;  ///< sorted
};

/// A program resident in the server for the whole run.
struct SessionInput {
  std::string name;
  std::string source;
  size_t preds = 0;
  size_t clauses = 0;
  /// Sharded (jobs=1) library output: the program every served reorder of
  /// this session must reproduce, warm or cold. Empty = not known yet.
  std::string expected_reorder;
};

/// A program the serve phase's writes derive fresh variants from.
struct VariantBase {
  std::string name;
  std::string source;
};

/// The served traffic of one workload. The mix is the same everywhere:
/// the request ratio of 7 solves to 1 reorder of the repository's server
/// stress harness (bench/server_stress.cc), its reorders split evenly
/// between warm reorders of resident sessions and writes. A write is a
/// load, a cold reorder and an unload of a fresh variant, so per 16 jobs
/// (14 reads, 1 warm reorder, 1 write) there are 18 requests.
struct ServeSpec {
  /// Requests per second at the nominal rate, below the knee.
  double nominal_rps = 100;
  double p99_limit_ms = 50;
  /// Length of one knee-search probe.
  double probe_s = 0.5;
  std::vector<VariantBase> variant_bases;
};

struct WorkloadInputs {
  std::vector<ProgramInput> programs;
  std::vector<SessionInput> sessions;
  std::vector<ReadQuery> reads;
  ServeSpec serve;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  /// Self-test hook: drop one answer from the first reordered program's
  /// answer set so the gate has a mismatch to catch.
  bool fabricate_mismatch = false;
  std::string trace_path;
};

/// Builds the workload's inputs from the seed (the "generate" part of
/// set-up). Unknown workload -> empty programs and sessions.
WorkloadInputs MakeInputs(const RunOptions& opts);

/// Fills ReadQuery::answers and session sizes by solving the original
/// programs (part of set-up). Returns false and reports on failure.
bool ComputeExpectations(WorkloadInputs* inputs, std::string* error);

/// A fresh variant of `base`: one new fact on one of its fact predicates,
/// so every group that depends on that predicate misses the cache. `pick`
/// chooses the predicate, `fresh` the new constants.
std::string MakeVariant(const std::string& base, uint64_t pick,
                        uint64_t fresh);

// ---- Results ----------------------------------------------------------------

/// Operations attempted/failed, with the first few failure reasons.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;
  /// Known defects, counted exactly. They do not fail the run: the output
  /// is still the right program.
  std::map<std::string, uint64_t> defects;
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (reasons.size() < 20) reasons.push_back(what);
    }
  }
};

/// Pipeline + engine phase.
struct PassResults {
  MetricMap e2e;    ///< end-to-end metrics
  MetricMap layer;  ///< per-layer samples (one per traced pass)
  /// Exact per-program facts from the warm-up: the warm run's cache hits,
  /// misses and rejections, and the calls of the original and both outputs.
  std::vector<std::string> notes;
  double untraced_pass_ms = 0;  ///< best, for the tracing overhead
  double traced_pass_ms = 0;
  double min_coverage = 1.0;    ///< lowest span coverage of a traced pass
  double unspanned_ms = 0;      ///< largest un-spanned time of a pass
};

/// The pipeline/engine phase: a warm-up pass (verifies answer sets, fills
/// the analysis cache), then measured steps. An untraced run's step times
/// one stage (jobs=0, jobs=N or warm reorder, or solve) of one program: the
/// stage that has had the least time so far, so every stage's samples are
/// spread over the whole window. A traced run's step is a whole pass over
/// every program, every second one traced.
class PassPhase {
 public:
  PassPhase(const RunOptions& opts, WorkloadInputs* inputs, Tracer* tracer,
            Tally* tally);
  ~PassPhase();
  void Warmup();
  void Measure();
  /// Whether enough steps were measured to report: two samples of every
  /// stage of every program, or (traced runs) an untraced and a traced
  /// pass.
  bool Satisfied() const;
  size_t measured() const { return measured_; }
  /// The sharded (jobs=1) output of program `program`, after Warmup.
  const std::string& ShardedText(size_t program) const;
  PassResults Finish();

 private:
  class Runner;
  std::unique_ptr<Runner> runner_;
  PassResults out_;
  const RunOptions& opts_;
  Tracer* tracer_;
  size_t measured_ = 0;
};

/// Serve phase results.
struct ServeResults {
  MetricMap e2e;
  MetricMap layer;
  /// The knee search's probes, in order: rate, p99, pass or fail.
  std::vector<std::string> notes;
};

/// A running prored instance with the workload's sessions loaded.
class ServeHarness;
/// Drains and joins the server, then deletes it.
struct StopServer {
  void operator()(ServeHarness* harness) const;
};
using ServerHandle = std::unique_ptr<ServeHarness, StopServer>;

/// Starts an in-process server on a Unix socket under `dir` and loads
/// the sessions (the server part of set-up).
ServerHandle StartServer(const std::string& dir, const WorkloadInputs& inputs,
                         std::string* error);

/// The serve phase, in steps that can be interleaved with passes: an
/// unloaded sample, then chunks of the nominal rate and (untraced runs)
/// knee-search probes, taking turns so that each gets half of the serving
/// time and both spread over the whole window. The constructor warms the
/// server's cache.
class ServePhase {
 public:
  ServePhase(const RunOptions& opts, ServeHarness* harness,
             const WorkloadInputs& inputs, Tracer* tracer, Tally* tally);
  ~ServePhase();
  /// Runs the next step.
  void Step();
  /// Whether enough was served to report: the unloaded sample, two
  /// nominal chunks and (untraced runs) a knee search that found a failing
  /// rate.
  bool Satisfied() const;
  ServeResults Finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// `text` with the writer's generated variable names (_G<n>) renumbered
/// by first appearance within each clause. Two programs with equal
/// canonical texts are the same program up to renaming variables.
std::string CanonicalVars(const std::string& text);

/// Whether `program` (a workload program, a session, or the base of a
/// served variant) is one on which warm-cache output was recorded to
/// rename generated variables when this benchmark was added. Only there
/// may warm output differ from cold output in its bytes, and then only in
/// those names; a byte difference anywhere else fails the run.
bool KnownRenameDefect(const std::string& program);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
