// Parallel-pipeline scaling bench: builds a ~1000-predicate synthetic
// program whose call graph condenses into hundreds of independent SCC
// dependency groups, runs the guarded pipeline at --jobs 1/2/4/8, and
// writes the measured wall-clock curve to BENCH_parallel.json under the
// "pipeline" key (the "engine" key, written by mt_queries, is preserved).
// jobs=1 is the inline pool: the same group-by-group run, no threads.
//
// The numbers are real measurements on the build host; on a single-core
// container the curve is flat (threads only add scheduling overhead), and
// the JSON records hw_threads so readers can tell. A sanity check asserts
// that every jobs value writes the bit-identical program.
//
// Usage: pipeline_scale [output.json]   (default BENCH_parallel.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "bench/bench_util.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace {

// ~1000 predicates: kClusters independent clusters of 4 predicates each.
// Within a cluster the top predicate joins the two mid predicates over a
// small fact base, so each dependency group gives the goal-order search
// and cost model real work; across clusters there are no edges, so the
// sharded pipeline has abundant parallelism.
constexpr int kClusters = 250;

constexpr int kRepeats = 3;  // per jobs value; the best is recorded

std::string SyntheticProgram() {
  std::ostringstream out;
  for (int c = 0; c < kClusters; ++c) {
    for (int f = 0; f < 4; ++f) {
      out << "base" << c << "(" << f << ", " << (f + 1) << ").\n";
    }
    out << "left" << c << "(X, Y) :- base" << c << "(X, Y).\n";
    out << "left" << c << "(X, Y) :- base" << c << "(X, Z), base" << c
        << "(Z, Y).\n";
    out << "right" << c << "(X, Y) :- base" << c << "(Y, X).\n";
    out << "top" << c << "(X, Y) :- left" << c << "(X, Z), right" << c
        << "(Z, Y), base" << c << "(X, _).\n";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  const std::string source = SyntheticProgram();

  // Parse once to report program shape; each measured run re-parses into a
  // fresh store so no run benefits from a warm arena.
  size_t num_preds = 0, num_groups = 0;
  {
    prore::term::TermStore store;
    auto program = prore::reader::ParseProgramText(&store, source);
    if (!program.ok()) {
      std::fprintf(stderr, "parse: %s\n",
                   program.status().ToString().c_str());
      return 1;
    }
    num_preds = program->NumPreds();
    auto graph = prore::analysis::CallGraph::Build(store, *program);
    if (graph.ok()) {
      num_groups = prore::analysis::ComputeDependencyGroups(*graph).size();
    }
  }

  const size_t jobs_curve[] = {1, 2, 4, 8};
  prore::JsonValue rows = prore::JsonValue::Array();
  std::string reference_text;
  double wall_ms_at_1 = 0.0;

  for (size_t jobs : jobs_curve) {
    // Best of kRepeats, each from a fresh parse; the slowest is kept too,
    // as the spread.
    double wall_ms = 0.0, slowest_ms = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      prore::term::TermStore store;
      auto program = prore::reader::ParseProgramText(&store, source);
      if (!program.ok()) return 1;

      prore::core::PipelineOptions opts;
      opts.jobs = jobs;
      prore::core::GuardedPipeline pipeline(&store, opts);

      auto t0 = std::chrono::steady_clock::now();
      auto result = pipeline.Run(*program);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "jobs=%zu: %s\n", jobs,
                     result.status().ToString().c_str());
        return 1;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      wall_ms = rep == 0 ? ms : std::min(wall_ms, ms);
      slowest_ms = std::max(slowest_ms, ms);

      std::string text = prore::reader::WriteProgram(store, result->program);
      if (reference_text.empty()) {
        reference_text = text;
      } else if (text != reference_text) {
        std::fprintf(stderr,
                     "FAIL: jobs=%zu output differs from jobs=1 output\n",
                     jobs);
        return 1;
      }
    }
    if (jobs == 1) wall_ms_at_1 = wall_ms;

    using prore::JsonValue;
    JsonValue row = JsonValue::Object();
    row.Set("threads", JsonValue::Number(jobs));
    row.Set("wall_ms", JsonValue::Number(std::round(wall_ms * 100) / 100));
    row.Set("slowest_ms",
            JsonValue::Number(std::round(slowest_ms * 100) / 100));
    row.Set("repeats", JsonValue::Number(kRepeats));
    row.Set("speedup_vs_1",
            JsonValue::Number(std::round(wall_ms_at_1 / wall_ms * 100) / 100));
    row.Set("preds", JsonValue::Number(num_preds));
    row.Set("groups", JsonValue::Number(num_groups));
    row.Set("hw_threads",
            JsonValue::Number(prore::ThreadPool::HardwareConcurrency()));
    rows.push_back(std::move(row));
    std::printf("jobs=%zu: %.1f ms (%zu preds, %zu groups)\n", jobs,
                wall_ms, num_preds, num_groups);
  }

  if (!prore::bench::WriteJsonSection(out_path, "pipeline", std::move(rows))) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s (pipeline section, jobs=1/2/4/8)\n", out_path);
  return 0;
}
