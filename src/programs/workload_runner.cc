#include "programs/workload_runner.h"

#include <chrono>

#include "analysis/modes.h"
#include "engine/database.h"
#include "reader/parser.h"
#include "term/store.h"

namespace prore::programs {

std::vector<std::string> WorkloadQueries(const BenchmarkProgram& program) {
  std::vector<std::string> goals;
  for (const auto& wl : program.mode_workloads) {
    auto mode = analysis::ModeFromString(wl.mode);
    if (!mode.ok()) continue;
    for (std::string& goal :
         analysis::ModeQueries(wl.pred, *mode, program.universe)) {
      goals.push_back(std::move(goal));
    }
  }
  for (const auto& wl : program.query_workloads) {
    goals.insert(goals.end(), wl.queries.begin(), wl.queries.end());
  }
  return goals;
}

prore::Result<WorkloadRun> RunWorkload(const BenchmarkProgram& program,
                                       const engine::SolveOptions& opts) {
  term::TermStore store;
  PRORE_ASSIGN_OR_RETURN(reader::Program parsed,
                         reader::ParseProgramText(&store, program.source));
  PRORE_ASSIGN_OR_RETURN(engine::Database db,
                         engine::Database::Build(&store, parsed));
  std::vector<term::TermRef> queries;
  for (const std::string& text : WorkloadQueries(program)) {
    PRORE_ASSIGN_OR_RETURN(reader::ReadTerm q,
                           reader::ParseQueryText(&store, text + "."));
    queries.push_back(q.term);
  }
  engine::Machine machine(&store, &db, opts);
  WorkloadRun run;
  auto t0 = std::chrono::steady_clock::now();
  for (term::TermRef q : queries) {
    PRORE_ASSIGN_OR_RETURN(engine::Metrics m, machine.Solve(q));
    run.answers += m.solutions;
  }
  auto t1 = std::chrono::steady_clock::now();
  run.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  run.metrics = machine.total_metrics();
  return run;
}

}  // namespace prore::programs
