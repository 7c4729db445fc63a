// perfbench — the repository's benchmark. One run measures one workload:
//
//   perfbench --workload corpus|large_program --seed N
//             --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//             [--socket-dir DIR]
//   perfbench --selftest [--socket-dir DIR]
//
// The in-process server listens on a Unix socket in DIR (default: the
// working directory).
//
// A run sets up (generate inputs, parse, solve the reference reads, start
// prored and load its sessions), then spends S seconds on pipeline/engine
// passes and on served traffic, checking every output against the
// original program run by the engine. Further set-ups are spread over the
// window; setup_s is the median of all. End-to-end times and rates are
// scaled to a reference host speed, measured by a calibration loop timed
// between steps. The run prints a human-readable report and, as its last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics (from spans
// recorded around each call into a layer) with --trace 1. It exits 1 when
// any check failed and 2 on bad usage or an unoptimised build.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "common/json.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

namespace perfbench {

void Tracer::Record(const char* name, uint64_t tid, Clock::time_point t0,
                    Clock::time_point t1) {
  Span s{name, tid, OriginUs(t0),
         std::chrono::duration<double, std::micro>(t1 - t0).count()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::CoveredMs(uint64_t tid, Clock::time_point t0,
                         Clock::time_point t1) const {
  const double lo = OriginUs(t0), hi = OriginUs(t1);
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans()) {
    if (s.tid != tid) continue;
    const double a = std::max(lo, s.start_us);
    const double b = std::min(hi, s.start_us + s.dur_us);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0, end = lo;
  for (const auto& [a, b] : iv) {
    if (b <= end) continue;
    covered += b - std::max(a, end);
    end = b;
  }
  return covered / 1000;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    std::string name;
    prore::AppendJsonEscaped(&name, s.name);
    out << (first ? "\n" : ",\n")
        << prore::StrFormat(
               "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f}",
               name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
               static_cast<unsigned long long>(s.tid), s.start_us, s.dur_us);
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

namespace {

using prore::StrFormat;

// The metric sets BENCHMARK.json declares, in its order. A metric is
// declared only if it is positive on every healthy run of every workload;
// counters of the recorded defects are positive until a defect is fixed.
// The report also prints the metrics that are 0 by construction
// (error_ratio, shed_ratio, server.shed, server.protocol_errors) or
// differences that can fall below 0 (server.overhead_ms, server.queue_ms,
// bench.trace_overhead_ms); the result line's "failed"/"attempted" carry
// error_ratio exactly.
const char* const kEndToEnd[] = {
    "setup_s",        "reorder_s",           "reorder_par_s",
    "reorder_warm_s", "solve_s",             "calls_ratio",
    "calls_ratio_sharded", "head_unif_ratio", "output_bytes",
    "peak_rss_mb",    "serve_p50_ms",        "serve_p99_ms",
    "serve_max_rps"};

const char* const kPerLayer[] = {
    "reader.parse_ms", "reader.write_ms", "reader.clauses",
    "analysis.callgraph_ms", "analysis.groups", "analysis.fixity_ms",
    "analysis.modes_ms", "analysis.absint_ms", "analysis.absint.transfers",
    "core.reorder_ms", "core.search_ms", "core.versions", "lint.validate_ms",
    "core.pipeline.jobs0_ms", "core.pipeline.jobs1_ms",
    "core.pipeline.jobsN_ms", "core.pipeline.parallel_efficiency",
    "core.cache.hits", "core.cache.misses", "core.cache.rejected",
    "core.cache.hit_ratio", "core.cache.byte_diffs", "engine.solve_ms",
    "engine.orig.solve_ms",
    "engine.calls", "engine.head_unifications", "engine.backtracks",
    "engine.heap_cells", "engine.choicepoints_elided", "engine.ns_per_call",
    "server.solve.p50_ms", "server.solve.p99_ms",
    "server.reorder_warm.p50_ms", "server.reorder_warm.p99_ms",
    "server.reorder_cold.p50_ms", "server.reorder_cold.p99_ms",
    "server.load.p50_ms", "server.load.p99_ms", "server.cache.hit_ratio",
    "generator.late_p99_ms", "bench.trace_overhead_ratio",
    "bench.span_coverage", "bench.host_slowdown"};

const std::set<std::string> kWorkloads = {"corpus", "large_program"};

/// Share of the measured window spent on pipeline/engine passes; the rest
/// serves traffic. large_program's reorders are the longest.
double PassShare(const std::string& workload) {
  return workload == "corpus" ? 0.5 : 0.7;
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus|large_program "
               "--seed N --seconds S --trace 0|1 [--tiny] [--trace-out FILE] "
               "[--socket-dir DIR]\n"
               "       perfbench --selftest [--socket-dir DIR]\n");
  return 2;
}

struct Outcome {
  MetricMap metrics;
  Tally tally;
  std::vector<std::string> notes;
  size_t setups = 0;
  size_t steps = 0;  ///< measured pass-phase steps
};

/// The calibration's lower quartile on the host this benchmark was first
/// measured on (4 vCPUs, GCC 12.2, RelWithDebInfo) in a quiet period: the
/// reference speed to which end-to-end times and rates are scaled.
constexpr double kCalibrationRefMs = 4.5;

/// A fixed CPU workload that uses no prore code: inserts into an ordered
/// map, so it chases pointers and branches as the reorderer and the engine
/// do. Its time follows the host's speed, which drifts with other tenants'
/// load by a third within minutes.
double CalibrationMs() {
  const Clock::time_point t0 = Clock::now();
  std::map<uint64_t, uint64_t> m;
  Rng rng(0x63616c6962ull);
  for (uint64_t i = 0; i < 20000; ++i) m[rng.Below(40000)] += i;
  uint64_t sum = 0;
  for (const auto& [k, v] : m) sum += k ^ v;
  const double ms = MsSince(t0, Clock::now());
  return sum == 0 ? -ms : ms;
}

/// One set-up, timed as a setup_s sample: make the inputs, solve the reads
/// the server will be asked on the original programs, start the server and
/// load its sessions.
bool SetUp(const RunOptions& opts, const std::string& dir, Outcome* out,
           WorkloadInputs* inputs, ServerHandle* server) {
  const Clock::time_point t0 = Clock::now();
  *inputs = MakeInputs(opts);
  std::string error;
  const bool ok = ComputeExpectations(inputs, &error);
  if (ok) *server = StartServer(dir, *inputs, &error);
  if (!ok || *server == nullptr) {
    out->tally.Check(false, "setup: " + error);
    return false;
  }
  AddSample(&out->metrics, "setup_s", "s", MsSince(t0, Clock::now()) / 1000);
  ++out->setups;
  return true;
}

/// Whether two set-ups made the same programs, sessions and reads.
bool SameInputs(const WorkloadInputs& a, const WorkloadInputs& b) {
  auto programs = [](const WorkloadInputs& in) {
    std::vector<std::string> v;
    for (const ProgramInput& p : in.programs) {
      v.push_back(p.name + "\n" + p.source);
      for (const QueryUnit& u : p.units) {
        for (const std::string& q : u.queries) v.push_back(q);
      }
    }
    for (const SessionInput& s : in.sessions) {
      v.push_back(s.name + "\n" + s.source);
    }
    for (const ReadQuery& r : in.reads) {
      v.push_back(r.session + "\n" + r.query);
      v.insert(v.end(), r.answers.begin(), r.answers.end());
    }
    return v;
  };
  return programs(a) == programs(b);
}

/// One whole run of a workload; the caller prints.
Outcome RunWorkload(const RunOptions& opts, const std::string& dir) {
  Outcome out;
  const Clock::time_point run_start = Clock::now();
  Tracer tracer;
  WorkloadInputs inputs;
  ServerHandle server;
  // The first set-up makes the inputs and the server the run uses. The
  // others are spread evenly over the window, so that their median does
  // not hinge on the host's state in the first second, and are torn down
  // at once; the seed must make the same inputs every time.
  if (!SetUp(opts, dir, &out, &inputs, &server)) return out;
  const size_t setups = opts.tiny ? 1 : 15;
  size_t preds = 0, clauses = 0, queries = 0;
  for (const SessionInput& s : inputs.sessions) {
    preds += s.preds;
    clauses += s.clauses;
  }
  for (const ProgramInput& p : inputs.programs) {
    for (const QueryUnit& u : p.units) queries += u.queries.size();
  }
  out.notes.push_back(StrFormat(
      "inputs: %zu programs with %zu queries; %zu sessions of %zu "
      "predicates and %zu clauses, %zu reads",
      inputs.programs.size(), queries, inputs.sessions.size(), preds, clauses,
      inputs.reads.size()));

  // Passes and serve steps are interleaved across the whole window, so
  // the samples of each are drawn from all of it: the host's slow spells
  // last seconds to minutes. Past the window, only what is still short of
  // its minimum runs.
  const double share = PassShare(opts.workload);
  const Clock::time_point warmup_start = Clock::now();
  PassPhase pass_phase(opts, &inputs, &tracer, &out.tally);
  pass_phase.Warmup();
  for (SessionInput& s : inputs.sessions) {
    for (size_t i = 0; i < inputs.programs.size(); ++i) {
      if (inputs.programs[i].source == s.source) {
        s.expected_reorder = pass_phase.ShardedText(i);
      }
    }
  }
  ServePhase serve_phase(opts, server.get(), inputs, &tracer, &out.tally);
  const Clock::time_point start = Clock::now();
  double pass_s = 0, serve_s = 0;
  // The host's speed is sampled between steps, at most every 100 ms, so
  // its samples spread over the window like the measured ones.
  Clock::time_point calibrated{};
  for (;;) {
    if (MsSince(calibrated, Clock::now()) >= 100) {
      AddSample(&out.metrics, "bench.calibration_ms", "ms", CalibrationMs(),
                Reduce::kLowQuartile);
      calibrated = Clock::now();
    }
    const double elapsed = MsSince(start, Clock::now()) / 1000;
    if (out.setups < setups &&
        elapsed * static_cast<double>(setups) >=
            opts.seconds * static_cast<double>(out.setups)) {
      WorkloadInputs again;
      ServerHandle other;
      if (SetUp(opts, dir, &out, &again, &other)) {
        out.tally.Check(SameInputs(again, inputs),
                        "setup: the same seed made other inputs");
      }
      continue;
    }
    const bool past = elapsed >= opts.seconds;
    const bool passes_done = pass_phase.Satisfied();
    const bool serving_done = serve_phase.Satisfied();
    if (past && passes_done && serving_done) break;
    const Clock::time_point t0 = Clock::now();
    if (past ? !passes_done : pass_s <= share * (pass_s + serve_s)) {
      pass_phase.Measure();
      pass_s += MsSince(t0, Clock::now()) / 1000;
    } else {
      serve_phase.Step();
      serve_s += MsSince(t0, Clock::now()) / 1000;
    }
  }
  out.notes.push_back(StrFormat(
      "timing: set-ups %.1f s, warm-up %.1f s, window %.1f s (passes %.1f s, "
      "serving %.1f s)",
      MsSince(run_start, warmup_start) / 1000,
      MsSince(warmup_start, start) / 1000, MsSince(start, Clock::now()) / 1000,
      pass_s, serve_s));
  PassResults passes = pass_phase.Finish();
  ServeResults serve = serve_phase.Finish();
  server.reset();

  for (auto* m : {&passes.e2e, &passes.layer, &serve.e2e, &serve.layer}) {
    for (auto& [name, metric] : *m) out.metrics[name] = metric;
  }
  out.steps = pass_phase.measured();
  // Every end-to-end time and rate is scaled from this run's host speed
  // to the reference speed, so that a slow spell of the host does not
  // read as a slower program; the unscaled values go to a note.
  const double slowdown =
      out.metrics["bench.calibration_ms"].Value() / kCalibrationRefMs;
  AddSample(&out.metrics, "bench.host_slowdown", "ratio", slowdown);
  std::string unscaled;
  for (const char* name : kEndToEnd) {
    auto it = out.metrics.find(name);
    if (it == out.metrics.end()) continue;
    Metric& m = it->second;
    if (m.unit == "s" || m.unit == "ms") {
      m.scale = 1 / slowdown;
    } else if (m.unit == "1/s") {
      m.scale = slowdown;
    } else {
      continue;
    }
    unscaled += StrFormat("%s%s %.6g", unscaled.empty() ? "" : ", ", name,
                          m.Unscaled());
  }
  out.notes.push_back(StrFormat(
      "host speed: calibration %.3f ms (reference %.1f ms), slowdown %.3f; "
      "unscaled: %s",
      out.metrics["bench.calibration_ms"].Value(), kCalibrationRefMs,
      slowdown, unscaled.c_str()));
  AddSample(&out.metrics, "peak_rss_mb", "MB", PeakRssMb());
  AddSample(&out.metrics, "error_ratio", "ratio",
            out.tally.attempted == 0
                ? 1
                : static_cast<double>(out.tally.failed) /
                      static_cast<double>(out.tally.attempted));
  out.notes.insert(out.notes.end(), passes.notes.begin(), passes.notes.end());
  out.notes.insert(out.notes.end(), serve.notes.begin(), serve.notes.end());
  if (opts.trace) {
    AddSample(&out.metrics, "bench.trace_overhead_ms", "ms",
              passes.traced_pass_ms - passes.untraced_pass_ms);
    AddSample(&out.metrics, "bench.trace_overhead_ratio", "ratio",
              passes.traced_pass_ms / passes.untraced_pass_ms);
    out.notes.push_back(StrFormat(
        "tracing: untraced pass %.3f ms, traced pass %.3f ms (best); "
        "lowest span coverage %.4f, largest un-spanned time %.3f ms",
        passes.untraced_pass_ms, passes.traced_pass_ms, passes.min_coverage,
        passes.unspanned_ms));
    out.tally.Check(passes.min_coverage >= 0.95,
                    StrFormat("trace: layer spans cover only %.1f%% of a "
                              "traced pass",
                              100 * passes.min_coverage));
    if (!opts.trace_path.empty() && !tracer.WriteChromeJson(opts.trace_path)) {
      out.tally.Check(false, "trace: cannot write " + opts.trace_path);
    }
  }
  return out;
}

void PrintReport(const RunOptions& opts, const Outcome& out) {
  std::printf(
      "perfbench envelope: workload=%s seed=%llu seconds=%g trace=%d "
      "tiny=%d hw_threads=%zu build_type=%s compiler=\"%s\" setups=%zu "
      "measured_steps=%zu\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, opts.tiny ? 1 : 0,
      prore::ThreadPool::HardwareConcurrency(), PERFBENCH_BUILD_TYPE,
      __VERSION__, out.setups, out.steps);
  std::printf("%-36s %14s %-6s %6s %14s %14s %14s %4s\n", "metric", "value",
              "unit", "of", "q1", "median", "q3", "n");
  for (const auto& [name, m] : out.metrics) {
    const char* of = m.reduce == Reduce::kMin           ? "min"
                     : m.reduce == Reduce::kLowQuartile ? "q1"
                                                        : "median";
    std::printf("%-36s %14.6g %-6s %6s %14.6g %14.6g %14.6g %4zu\n",
                name.c_str(), m.Value(), m.unit.c_str(),
                m.piecewise >= 0 ? "sum q1" : of,
                Quantile(m.samples, 0.25), Median(m.samples),
                Quantile(m.samples, 0.75), m.samples.size());
  }
  for (const std::string& n : out.notes) std::printf("note: %s\n", n.c_str());
  for (const auto& [what, count] : out.tally.defects) {
    std::printf("defect: %s: %llu\n", what.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const std::string& r : out.tally.reasons) {
    std::printf("FAILED: %s\n", r.c_str());
  }
}

void PrintResult(const RunOptions& opts, const Outcome& out) {
  prore::JsonValue metrics = prore::JsonValue::Object();
  auto emit = [&](const char* name) {
    auto it = out.metrics.find(name);
    prore::JsonValue v = prore::JsonValue::Object();
    v.Set("value", prore::JsonValue::Number(
                       it == out.metrics.end() ? 0 : it->second.Value()));
    v.Set("unit", prore::JsonValue::String(
                      it == out.metrics.end() ? "" : it->second.unit));
    metrics.Set(name, std::move(v));
  };
  if (opts.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  prore::JsonValue result = prore::JsonValue::Object();
  result.Set("correct", prore::JsonValue::Bool(out.tally.failed == 0));
  result.Set("attempted", prore::JsonValue::Number(
                              static_cast<double>(out.tally.attempted)));
  result.Set("failed",
             prore::JsonValue::Number(static_cast<double>(out.tally.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

/// The answer-set gate must catch a fabricated mismatch: a tiny corpus run
/// with one answer dropped from a reordered program's answer set has to
/// fail, and the same run without it has to pass.
int SelfTest(const std::string& dir) {
  RunOptions opts;
  opts.workload = "corpus";
  opts.seed = 7;
  opts.seconds = 0.5;
  opts.tiny = true;
  Outcome clean = RunWorkload(opts, dir);
  opts.fabricate_mismatch = true;
  Outcome fabricated = RunWorkload(opts, dir);
  bool caught = false;
  for (const std::string& r : fabricated.tally.reasons) {
    if (r.find("answer sets differ") != std::string::npos) caught = true;
  }
  std::printf("clean run: %llu/%llu failed; fabricated run: %llu/%llu "
              "failed, answer-set mismatch %s\n",
              static_cast<unsigned long long>(clean.tally.failed),
              static_cast<unsigned long long>(clean.tally.attempted),
              static_cast<unsigned long long>(fabricated.tally.failed),
              static_cast<unsigned long long>(fabricated.tally.attempted),
              caught ? "caught" : "NOT caught");
  return clean.tally.failed == 0 && caught ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  RunOptions opts;
  bool selftest = false;
  std::string dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--workload" && value(&v)) {
      opts.workload = v;
    } else if (arg == "--seed" && value(&v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace" && value(&v)) {
      opts.trace = v == "1";
    } else if (arg == "--trace-out" && value(&v)) {
      opts.trace_path = v;
    } else if (arg == "--socket-dir" && value(&v)) {
      dir = v;
    } else {
      return Usage();
    }
  }
  if (selftest) return SelfTest(dir);
  if (kWorkloads.count(opts.workload) == 0 || !(opts.seconds > 0)) {
    return Usage();
  }
  Outcome out = RunWorkload(opts, dir);
  PrintReport(opts, out);
  PrintResult(opts, out);
  return out.tally.failed == 0 ? 0 : 1;
}
