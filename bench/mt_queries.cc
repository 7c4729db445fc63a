// Multithreaded query-engine bench: compiles one program into an immutable
// ProgramSnapshot, then answers a fixed batch of queries with 1/2/4/8
// worker Machines drawing from a shared work queue. Each worker owns a
// private clone of the snapshot arena (its bindable heap); the compiled
// database is shared const. Writes the measured queries/sec curve to
// BENCH_parallel.json under the "engine" key, preserving the "pipeline"
// key written by pipeline_scale.
//
// The numbers are real measurements on the build host; on a single-core
// container the curve is flat, and hw_threads in the JSON says so.
//
// Usage: mt_queries [output.json]   (default BENCH_parallel.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "engine/machine.h"
#include "engine/snapshot.h"
#include "reader/parser.h"
#include "term/store.h"

namespace {

// List-heavy workload: every query allocates, unifies and backtracks
// enough to dominate the per-query dispatch overhead.
const char kProgram[] =
    "nrev([], []).\n"
    "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
    "app([], L, L).\n"
    "app([H|T], L, [H|R]) :- app(T, L, R).\n"
    "edge(N, M) :- between(1, 40, N), between(1, 40, M), 0 is (N + M) mod 7.\n"
    "probe(X) :- edge(X, Y), edge(Y, X), X < Y.\n";

const char* const kQueries[] = {
    "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,"
    "25,26,27,28,29,30], R).",
    "probe(X), fail; true.",
};

constexpr size_t kTotalQueries = 192;  // per measured batch, all workers
constexpr int kRepeats = 3;            // batches per worker count; best kept

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";

  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(&store, kProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return 1;
  }
  auto snap = prore::engine::ProgramSnapshot::Compile(store, *program);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }

  const size_t worker_curve[] = {1, 2, 4, 8};
  prore::JsonValue rows = prore::JsonValue::Array();
  double qps_at_1 = 0.0;

  for (size_t workers : worker_curve) {
    // Warm machines and pre-parsed queries, one set per worker, built
    // outside the timed region.
    std::vector<std::unique_ptr<prore::engine::Machine>> machines;
    std::vector<std::vector<prore::term::TermRef>> goals(workers);
    for (size_t w = 0; w < workers; ++w) {
      machines.push_back(
          std::make_unique<prore::engine::Machine>(*snap));
      for (const char* q : kQueries) {
        auto parsed =
            prore::reader::ParseQueryText(&machines[w]->store(), q);
        if (!parsed.ok()) {
          std::fprintf(stderr, "query: %s\n",
                       parsed.status().ToString().c_str());
          return 1;
        }
        goals[w].push_back(parsed->term);
      }
    }

    // Best of kRepeats batches; the slowest is kept too, as the spread.
    double wall_ms = 0.0, slowest_ms = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::atomic<size_t> next{0};
      std::atomic<size_t> failures{0};
      auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w]() {
          while (true) {
            size_t i = next.fetch_add(1);
            if (i >= kTotalQueries) break;
            auto r = machines[w]->Solve(goals[w][i % goals[w].size()]);
            if (!r.ok()) failures.fetch_add(1);
          }
        });
      }
      for (std::thread& t : pool) t.join();
      auto t1 = std::chrono::steady_clock::now();
      if (failures.load() != 0) {
        std::fprintf(stderr, "FAIL: %zu queries errored\n",
                     failures.load());
        return 1;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      wall_ms = rep == 0 ? ms : std::min(wall_ms, ms);
      slowest_ms = std::max(slowest_ms, ms);
    }
    double qps = wall_ms > 0.0 ? kTotalQueries / (wall_ms / 1000.0) : 0.0;
    if (workers == 1) qps_at_1 = qps;

    using prore::JsonValue;
    JsonValue row = JsonValue::Object();
    row.Set("threads", JsonValue::Number(workers));
    row.Set("queries", JsonValue::Number(kTotalQueries));
    row.Set("wall_ms", JsonValue::Number(std::round(wall_ms * 100) / 100));
    row.Set("slowest_ms",
            JsonValue::Number(std::round(slowest_ms * 100) / 100));
    row.Set("repeats", JsonValue::Number(kRepeats));
    row.Set("queries_per_sec", JsonValue::Number(std::round(qps)));
    row.Set("speedup_vs_1",
            JsonValue::Number(std::round(qps / qps_at_1 * 100) / 100));
    row.Set("hw_threads",
            JsonValue::Number(prore::ThreadPool::HardwareConcurrency()));
    rows.push_back(std::move(row));
    std::printf("workers=%zu: %.1f ms, %.0f queries/sec\n", workers,
                wall_ms, qps);
  }

  if (!prore::bench::WriteJsonSection(out_path, "engine", std::move(rows))) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s (engine section, workers=1/2/4/8)\n", out_path);
  return 0;
}
