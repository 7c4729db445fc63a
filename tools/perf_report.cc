// Emits BENCH_engine.json: wall-clock and engine counters for the Table
// II/III/IV workloads plus the unification-heavy microbench scenarios, so
// the engine's perf trajectory is machine-readable across PRs.
//
// Schema: an array of
//   {"workload": str, "wall_ns": int, "calls": int, "unifications": int,
//    "heap_cells": int, "choicepoints_elided": int, "threads": int,
//    "hw_threads": int}
// where `calls` is the paper's headline counter (user + builtin calls),
// `unifications` counts clause-head unification attempts, `heap_cells`
// is the peak term cells live above the query watermark,
// `choicepoints_elided` counts choicepoints the engine skipped because a
// head-exclusivity witness proved at most one clause could match, `threads`
// is how
// many engine workers solved the scenario concurrently (snapshot-backed
// machines; 1 = the classic single machine), and `hw_threads` is the
// host's hardware concurrency — so scaling numbers carry their context.
//
// Usage: perf_report [--threads N] [output.json]   (default
// BENCH_engine.json; --threads N runs the micro scenarios on N concurrent
// machines over one shared ProgramSnapshot, counters summed across
// workers)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/machine.h"
#include "engine/snapshot.h"
#include "programs/programs.h"
#include "programs/workload_runner.h"
#include "reader/parser.h"
#include "term/store.h"

namespace {

struct Row {
  std::string workload;
  uint64_t wall_ns = 0;
  uint64_t calls = 0;
  uint64_t unifications = 0;
  uint64_t heap_cells = 0;
  uint64_t choicepoints_elided = 0;
  size_t threads = 1;  ///< concurrent engine workers for this entry
};

// Repeats a scenario until it has run for at least ~50ms and reports the
// best-of-n wall time (steady-state, machine warm), with the counters of a
// single run.
template <typename Fn>
Row Measure(const std::string& name, Fn&& run_once) {
  Row row;
  row.workload = name;
  uint64_t total_ns = 0;
  uint64_t best_ns = UINT64_MAX;
  int runs = 0;
  while (total_ns < 50'000'000 || runs < 3) {
    auto t0 = std::chrono::steady_clock::now();
    prore::engine::Metrics m = run_once();
    auto t1 = std::chrono::steady_clock::now();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    total_ns += ns;
    if (ns < best_ns) best_ns = ns;
    row.calls = m.TotalCalls();
    row.unifications = m.head_unifications;
    row.heap_cells = m.heap_cells;
    row.choicepoints_elided = m.choicepoints_elided;
    if (++runs >= 200) break;
  }
  row.wall_ns = best_ns;
  return row;
}

/// One warm machine per micro scenario: program text + goal text.
struct MicroScenario {
  const char* name;
  const char* program;
  const char* goal;
};

// The unification-heavy solve scenarios mirrored from bench/microbench.cc
// (BM_Solve*) plus backtracking fan-outs from the stress test.
const MicroScenario kMicro[] = {
    {"micro_nrev30",
     "nrev([], []).\n"
     "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
     "app([], L, L).\n"
     "app([H|T], L, [H|R]) :- app(T, L, R).\n",
     "nrev([0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,"
     "24,25,26,27,28,29], R)"},
    {"micro_between_fanout",
     "pick(X) :- between(1, 2000, X), 0 is X mod 499.\n",
     "pick(X), fail"},
    {"micro_member_deep",
     "probe(L) :- member(X, L), X == 199.\n", ""},  // goal built below
};

Row MeasureMicro(const MicroScenario& s, const std::string& goal_text,
                 size_t threads) {
  prore::term::TermStore store;
  auto parsed = prore::reader::ParseProgramText(&store, s.program);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse %s: %s\n", s.name,
                 parsed.status().message().c_str());
    return Row{s.name};
  }

  if (threads <= 1) {
    auto db = prore::engine::Database::Build(&store, *parsed);
    if (!db.ok()) {
      std::fprintf(stderr, "build %s: %s\n", s.name,
                   db.status().message().c_str());
      return Row{s.name};
    }
    prore::engine::Machine machine(&store, &*db);
    auto q = prore::reader::ParseQueryText(&store, goal_text + ".");
    if (!q.ok()) {
      std::fprintf(stderr, "query %s: %s\n", s.name,
                   q.status().message().c_str());
      return Row{s.name};
    }
    return Measure(s.name, [&]() {
      auto m = machine.Solve(q->term);
      return m.ok() ? *m : prore::engine::Metrics{};
    });
  }

  // N warm snapshot-backed machines, each with its private heap clone of
  // the shared compiled program; one run = every machine solves the query
  // once, concurrently. Counters are summed across workers.
  auto snap = prore::engine::ProgramSnapshot::Compile(store, *parsed);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot %s: %s\n", s.name,
                 snap.status().message().c_str());
    return Row{s.name};
  }
  std::vector<std::unique_ptr<prore::engine::Machine>> machines;
  std::vector<prore::term::TermRef> goals;
  for (size_t i = 0; i < threads; ++i) {
    machines.push_back(std::make_unique<prore::engine::Machine>(*snap));
    auto q = prore::reader::ParseQueryText(&machines[i]->store(),
                                           goal_text + ".");
    if (!q.ok()) {
      std::fprintf(stderr, "query %s: %s\n", s.name,
                   q.status().message().c_str());
      return Row{s.name};
    }
    goals.push_back(q->term);
  }
  std::vector<prore::engine::Metrics> worker_metrics(threads);
  Row row = Measure(s.name, [&]() {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      pool.emplace_back([&, i]() {
        auto m = machines[i]->Solve(goals[i]);
        worker_metrics[i] = m.ok() ? *m : prore::engine::Metrics{};
      });
    }
    for (std::thread& t : pool) t.join();
    prore::engine::Metrics total;
    for (const auto& m : worker_metrics) total += m;
    return total;
  });
  row.threads = threads;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_engine.json";
  size_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
      long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1 || n > 1024) {
        std::fprintf(stderr, "perf_report: bad --threads %s\n", argv[i]);
        return 1;
      }
      threads = static_cast<size_t>(n);
    } else {
      out_path = argv[i];
    }
  }
  std::vector<Row> rows;

  // Table II/III/IV (+ Warren geography) workloads, full query sets.
  for (const prore::programs::BenchmarkProgram* p :
       prore::programs::AllPrograms()) {
    prore::engine::SolveOptions opts;
    rows.push_back(Measure("table_" + p->name, [&]() {
      auto run = prore::programs::RunWorkload(*p, opts);
      if (!run.ok()) {
        std::fprintf(stderr, "workload %s: %s\n", p->name.c_str(),
                     run.status().message().c_str());
        return prore::engine::Metrics{};
      }
      return run->metrics;
    }));
  }

  // Unification-heavy micro scenarios on warm machines (--threads N runs
  // N concurrent snapshot-backed workers per scenario).
  rows.push_back(MeasureMicro(kMicro[0], kMicro[0].goal, threads));
  rows.push_back(MeasureMicro(kMicro[1], kMicro[1].goal, threads));
  {
    std::string list = "[";
    for (int i = 0; i < 200; ++i) {
      if (i) list += ",";
      list += std::to_string(i);
    }
    list += "]";
    rows.push_back(MeasureMicro(kMicro[2], "probe(" + list + ")", threads));
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::string workload;
    prore::AppendJsonEscaped(&workload, r.workload);
    std::fprintf(f,
                 "  {\"workload\": %s, \"wall_ns\": %llu, "
                 "\"calls\": %llu, \"unifications\": %llu, "
                 "\"heap_cells\": %llu, \"choicepoints_elided\": %llu, "
                 "\"threads\": %zu, \"hw_threads\": %zu}%s\n",
                 workload.c_str(),
                 static_cast<unsigned long long>(r.wall_ns),
                 static_cast<unsigned long long>(r.calls),
                 static_cast<unsigned long long>(r.unifications),
                 static_cast<unsigned long long>(r.heap_cells),
                 static_cast<unsigned long long>(r.choicepoints_elided),
                 r.threads, prore::ThreadPool::HardwareConcurrency(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu workloads)\n", out_path, rows.size());
  return 0;
}
